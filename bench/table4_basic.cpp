// Table IV: straightforward rewriting — Pregel+ basic implementations vs
// their channel-based ports, across all six evaluation algorithms.
//
// Paper rows (runtime s / message GB, pregel -> channel):
//   PR  : WebUK 212.24/63.23 -> 205.80/63.23; Wikipedia 47.32/14.02 -> 40.36/14.02
//   WCC : Wikipedia 16.96/2.85 -> 15.67/2.85; Wikipedia (P) 15.31/0.49 -> 15.85/0.49
//   PJ  : Chain 111.54/39.99 -> 69.63/39.99;  Tree 36.25/8.56 -> 19.94/8.56
//   S-V : Facebook 49.74/16.41 -> 37.92/11.46; Twitter 382.60/112.21 -> 144.99/20.32
//   MSF : USA 27.05/8.67 -> 16.13/4.86;       RMAT24 50.56/14.80 -> 45.94/12.91
//   SCC : Wikipedia 52.15/9.85 -> 61.89/4.98; Wikipedia (P) 50.51/2.70 -> 67.84/1.29
//
// Expected shape: channel wins or ties everywhere except SCC (channel
// round overhead over ~10^3 sparse supersteps); big byte reductions for
// S-V / MSF / SCC (per-channel combiners + per-channel message types).

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>

#include "algorithms/msf.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/pointer_jumping.hpp"
#include "algorithms/pp_msf.hpp"
#include "algorithms/pp_scc.hpp"
#include "algorithms/pp_simple.hpp"
#include "algorithms/pp_sv.hpp"
#include "algorithms/scc.hpp"
#include "algorithms/sv.hpp"
#include "algorithms/wcc.hpp"
#include "bench_common.hpp"

namespace {

using namespace pregel;

PGCH_CACHED_DG(webuk, bench::hash_dg(bench::webuk_graph()))
PGCH_CACHED_DG(wikipedia, bench::hash_dg(bench::wikipedia_graph()))
PGCH_CACHED_DG(chain, bench::hash_dg(bench::chain_graph()))
PGCH_CACHED_DG(tree, bench::hash_dg(bench::tree_graph()))
PGCH_CACHED_DG(facebook, bench::hash_dg(bench::facebook_graph()))
PGCH_CACHED_DG(twitter, bench::hash_dg(bench::twitter_graph()))
PGCH_CACHED_DG(usa, bench::hash_dg(bench::usa_graph()))
PGCH_CACHED_DG(rmat24, bench::hash_dg(bench::rmat24_graph()))

const bench::CsrGraph& wiki_sym() {
  static const bench::CsrGraph g = bench::symmetrized(bench::wikipedia_graph());
  return g;
}
const bench::CsrGraph& wiki_bi() {
  static const bench::CsrGraph g =
      algo::make_bidirected(bench::wikipedia_scc_graph());
  return g;
}

PGCH_CACHED_DG(wiki_sym_hash, bench::hash_dg(wiki_sym()))
PGCH_CACHED_DG(wiki_sym_part, bench::voronoi_dg(wiki_sym()))
PGCH_CACHED_DG(wiki_bi_hash, bench::hash_dg(wiki_bi()))
PGCH_CACHED_DG(wiki_bi_part, bench::voronoi_dg(wiki_bi()))

// --------------------------------------------------------------- PR -------
void PR_WebUK_Pregel(benchmark::State& s) {
  bench::run_case<algo::PPPageRank>(s, __func__, webuk());
}
void PR_WebUK_Channel(benchmark::State& s) {
  bench::run_case<algo::PageRankCombined>(s, __func__, webuk());
}
void PR_Wikipedia_Pregel(benchmark::State& s) {
  bench::run_case<algo::PPPageRank>(s, __func__, wikipedia());
}
void PR_Wikipedia_Channel(benchmark::State& s) {
  bench::run_case<algo::PageRankCombined>(s, __func__, wikipedia());
}

// ---- snapshot-load row (zero-copy loading, DESIGN.md section 5) ----------
// One v3 snapshot of the WebUK stand-in, written once per binary into the
// temp directory. The row re-maps it each iteration with the page cache
// and the verify-once checksum cache warm — the steady state of a rank
// (re)start on a host that already holds the snapshot. It then runs the
// usual PageRank over the freshly loaded graph, so the JSON record
// carries the load_s/graph_bytes pair next to comparable run stats.

const std::string& webuk_snapshot() {
  static const std::string path = [] {
    const std::string p = (std::filesystem::temp_directory_path() /
                           "pgch_bench_webuk_v3.bin")
                              .string();
    pregel::graph::save_binary(bench::webuk_graph(), p);
    return p;
  }();
  return path;
}

void PR_WebUK_MmapLoad(benchmark::State& s) {
  const std::string& path = webuk_snapshot();
  (void)pregel::graph::load_binary_mmap(path);  // warm page + verify caches
  double load_s = 0.0;
  pregel::runtime::RunStats last;
  for (auto _ : s) {
    const auto t0 = std::chrono::steady_clock::now();
    bench::CsrGraph g = pregel::graph::load_binary_mmap(path);
    load_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
    s.SetIterationTime(load_s);
    bench::note_load_stats("webuk", load_s, bench::graph_bytes(g));
    const bench::DistributedGraph dg(
        std::make_shared<const bench::CsrGraph>(std::move(g)),
        pregel::graph::hash_partition(bench::webuk_graph().num_vertices(),
                                      bench::num_workers()));
    last = algo::run_only<algo::PageRankCombined>(dg, nullptr);
  }
  s.counters["load_ms"] = load_s * 1e3;
  s.counters["msg_MB"] = last.message_mb();
  bench::record_json(__func__, last);
}

// ---- skew rows (DESIGN.md section 11) ------------------------------------
// PageRank on the unpermuted power-law graph under a range partition,
// pinned vs stealing compute. The JSON rank_imbalance/slot_imbalance
// fields are the point of these rows: range partitioning leaves the hub
// ranges on one rank (high rank imbalance); within a rank, stealing
// flattens the per-slot spread the hub chunks cause. Threads are pinned
// to 3 so the in-process and 2-rank TCP rows measure the same schedule.
PGCH_CACHED_DG(rmat_range, bench::range_dg(bench::rmat_skew_graph()))

void skew_pinned(algo::PageRankCombined& w) {
  w.set_compute_threads(3);
  w.set_steal(false);
}
void skew_steal(algo::PageRankCombined& w) {
  w.set_compute_threads(3);
  w.set_steal(true);
}
void PR_Rmat_Range(benchmark::State& s) {
  bench::run_case<algo::PageRankCombined>(s, __func__, rmat_range(),
                                          skew_pinned);
}
void PR_Rmat_RangeSteal(benchmark::State& s) {
  bench::run_case<algo::PageRankCombined>(s, __func__, rmat_range(),
                                          skew_steal);
}

// --------------------------------------------------------------- WCC ------
void WCC_Wikipedia_Pregel(benchmark::State& s) {
  bench::run_case<algo::PPWcc>(s, __func__, wiki_sym_hash());
}
void WCC_Wikipedia_Channel(benchmark::State& s) {
  bench::run_case<algo::WccBasic>(s, __func__, wiki_sym_hash());
}
void WCC_WikipediaP_Pregel(benchmark::State& s) {
  bench::run_case<algo::PPWcc>(s, __func__, wiki_sym_part());
}
void WCC_WikipediaP_Channel(benchmark::State& s) {
  bench::run_case<algo::WccBasic>(s, __func__, wiki_sym_part());
}

// --------------------------------------------------------------- PJ -------
void PJ_Chain_Pregel(benchmark::State& s) {
  bench::run_case<algo::PPPointerJumping>(s, __func__, chain());
}
void PJ_Chain_Channel(benchmark::State& s) {
  bench::run_case<algo::PointerJumpingBasic>(s, __func__, chain());
}
void PJ_Tree_Pregel(benchmark::State& s) {
  bench::run_case<algo::PPPointerJumping>(s, __func__, tree());
}
void PJ_Tree_Channel(benchmark::State& s) {
  bench::run_case<algo::PointerJumpingBasic>(s, __func__, tree());
}

// --------------------------------------------------------------- S-V ------
void SV_Facebook_Pregel(benchmark::State& s) {
  bench::run_case<algo::PPSv>(s, __func__, facebook());
}
void SV_Facebook_Channel(benchmark::State& s) {
  bench::run_case<algo::SvBasic>(s, __func__, facebook());
}
void SV_Twitter_Pregel(benchmark::State& s) {
  bench::run_case<algo::PPSv>(s, __func__, twitter());
}
void SV_Twitter_Channel(benchmark::State& s) {
  bench::run_case<algo::SvBasic>(s, __func__, twitter());
}

// --------------------------------------------------------------- MSF ------
void MSF_USA_Pregel(benchmark::State& s) {
  bench::run_case<algo::PPMsf>(s, __func__, usa());
}
void MSF_USA_Channel(benchmark::State& s) {
  bench::run_case<algo::MsfBoruvka>(s, __func__, usa());
}
void MSF_RMAT24_Pregel(benchmark::State& s) {
  bench::run_case<algo::PPMsf>(s, __func__, rmat24());
}
void MSF_RMAT24_Channel(benchmark::State& s) {
  bench::run_case<algo::MsfBoruvka>(s, __func__, rmat24());
}

// --------------------------------------------------------------- SCC ------
void SCC_Wikipedia_Pregel(benchmark::State& s) {
  bench::run_case<algo::PPScc>(s, __func__, wiki_bi_hash());
}
void SCC_Wikipedia_Channel(benchmark::State& s) {
  bench::run_case<algo::SccBasic>(s, __func__, wiki_bi_hash());
}
void SCC_WikipediaP_Pregel(benchmark::State& s) {
  bench::run_case<algo::PPScc>(s, __func__, wiki_bi_part());
}
void SCC_WikipediaP_Channel(benchmark::State& s) {
  bench::run_case<algo::SccBasic>(s, __func__, wiki_bi_part());
}

#define PGCH_BENCH(fn) \
  BENCHMARK(fn)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1)

PGCH_BENCH(PR_WebUK_Pregel);
PGCH_BENCH(PR_WebUK_Channel);
PGCH_BENCH(PR_Wikipedia_Pregel);
PGCH_BENCH(PR_Wikipedia_Channel);
PGCH_BENCH(PR_WebUK_MmapLoad);
PGCH_BENCH(PR_Rmat_Range);
PGCH_BENCH(PR_Rmat_RangeSteal);
PGCH_BENCH(WCC_Wikipedia_Pregel);
PGCH_BENCH(WCC_Wikipedia_Channel);
PGCH_BENCH(WCC_WikipediaP_Pregel);
PGCH_BENCH(WCC_WikipediaP_Channel);
PGCH_BENCH(PJ_Chain_Pregel);
PGCH_BENCH(PJ_Chain_Channel);
PGCH_BENCH(PJ_Tree_Pregel);
PGCH_BENCH(PJ_Tree_Channel);
PGCH_BENCH(SV_Facebook_Pregel);
PGCH_BENCH(SV_Facebook_Channel);
PGCH_BENCH(SV_Twitter_Pregel);
PGCH_BENCH(SV_Twitter_Channel);
PGCH_BENCH(MSF_USA_Pregel);
PGCH_BENCH(MSF_USA_Channel);
PGCH_BENCH(MSF_RMAT24_Pregel);
PGCH_BENCH(MSF_RMAT24_Channel);
PGCH_BENCH(SCC_Wikipedia_Pregel);
PGCH_BENCH(SCC_Wikipedia_Channel);
PGCH_BENCH(SCC_WikipediaP_Pregel);
PGCH_BENCH(SCC_WikipediaP_Channel);

}  // namespace

PGCH_BENCH_MAIN()
