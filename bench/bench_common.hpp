#pragma once
// Shared benchmark infrastructure: the paper-dataset stand-ins (Table III,
// scaled to this container — see DESIGN.md section 1) and the harness glue
// that reports each run the way the paper's tables do: wall seconds and
// message megabytes, plus superstep counts.
//
// Every dataset is built once per binary and cached. Worker count defaults
// to 4 (the paper's per-node slot count); override with PGCH_BENCH_WORKERS.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/runner.hpp"
#include "algorithms/scc.hpp"
#include "graph/csr.hpp"
#include "graph/distributed.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"

namespace bench {

using pregel::graph::CsrGraph;
using pregel::graph::DistributedGraph;
using pregel::graph::Graph;

/// Benchmarks default to the paper's link speed (750 Mbps ~ 90 MB/s) for
/// the simulated network (see runtime/exchange.hpp); tests leave it off.
/// Override with PGCH_SIM_NET_MBPS=<mbps> (0 disables).
inline const bool kNetDefaulted = [] {
#ifdef _WIN32
  return false;
#else
  setenv("PGCH_SIM_NET_MBPS", "90", /*overwrite=*/0);
  return true;
#endif
}();

inline int num_workers() {
  // A multi-process run (tools/pgch_launch sets PGCH_WORLD) dictates the
  // partition's worker count; PGCH_BENCH_WORKERS tunes in-process runs.
  const int world = pregel::core::LaunchConfig::from_env().world_size;
  if (world > 0) return world;
  if (const char* env = std::getenv("PGCH_BENCH_WORKERS")) {
    const int w = std::atoi(env);
    if (w > 0) return w;
  }
  return 4;
}

/// Scale factor for all datasets (1 = defaults below); override with
/// PGCH_BENCH_SCALE_SHIFT=-1/-2 to shrink for smoke runs.
inline int scale_shift() {
  if (const char* env = std::getenv("PGCH_BENCH_SCALE_SHIFT")) {
    return std::atoi(env);
  }
  return 0;
}

inline std::uint32_t scaled(std::uint32_t base) {
  const int s = scale_shift();
  return s >= 0 ? base << s : base >> (-s);
}

// ---- dataset stand-ins (cached per binary) --------------------------------
//
// Every dataset is a finalized CsrGraph. A real dataset can replace any
// stand-in without recompiling: set PGCH_DATASET_<NAME>=<path> (NAME in
// caps, e.g. PGCH_DATASET_WIKIPEDIA=/data/wiki.bin) to a binary snapshot
// or an edge-list text file (tools/graph_convert builds snapshots).

/// Symmetrize a finalized dataset (round-trips through the builder; done
/// once per binary at dataset-build time).
inline CsrGraph symmetrized(const CsrGraph& g) {
  return g.to_graph().symmetrized().finalize();
}

/// Resident bytes of a dataset's CSR arrays (what a heap load pays for
/// and an mmap load defers to page faults).
inline std::uint64_t graph_bytes(const CsrGraph& g) {
  return g.offsets().size_bytes() + g.dst_array().size_bytes() +
         g.weight_array().size_bytes();
}

/// How a dataset got into memory: seconds to load-or-generate it, and its
/// array footprint. Keyed by lowercase dataset token so record_json can
/// attach the numbers to every row benched on that dataset.
struct LoadStats {
  double load_s = 0.0;
  std::uint64_t graph_bytes = 0;
};

inline std::map<std::string, LoadStats>& load_stats_registry() {
  static std::map<std::string, LoadStats> registry;
  return registry;
}

inline std::string lowercased(const std::string& s) {
  std::string out;
  for (const char c : s) {
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// Record (or overwrite — load benches re-time the same dataset) how long
/// `dataset` took to materialize and how big it is.
inline void note_load_stats(const std::string& dataset, double load_s,
                            std::uint64_t bytes) {
  load_stats_registry()[lowercased(dataset)] = LoadStats{load_s, bytes};
}

/// Resolve dataset `name`: the PGCH_DATASET_<NAME> override when set
/// (loaded via graph::load_any), else the generated stand-in, finalized.
/// Datasets whose consumers require undirected input pass
/// `symmetrize_override` so a raw directed download gets the same
/// normalization the generated stand-in bakes in.
inline CsrGraph make_dataset(const std::string& name,
                             const std::function<Graph()>& generate,
                             bool symmetrize_override = false) {
  std::string env = "PGCH_DATASET_";
  for (const char c : name) {
    env += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto note = [&](const CsrGraph& g) {
    note_load_stats(
        name,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count(),
        graph_bytes(g));
  };
  if (const char* path = std::getenv(env.c_str())) {
    CsrGraph g = pregel::graph::load_any(path);
    if (symmetrize_override) g = symmetrized(g);
    note(g);
    return g;
  }
  CsrGraph g = generate().finalize();
  note(g);
  return g;
}

/// Wikipedia stand-in: skewed directed web-like graph.
inline const CsrGraph& wikipedia_graph() {
  static const CsrGraph g = make_dataset("wikipedia", [] {
    return pregel::graph::rmat({.num_vertices = scaled(1u << 17),
                                .num_edges = scaled(10u << 17),
                                .seed = 101});
  });
  return g;
}

/// WebUK stand-in: bigger, denser web crawl.
inline const CsrGraph& webuk_graph() {
  static const CsrGraph g = make_dataset("webuk", [] {
    return pregel::graph::rmat({.num_vertices = scaled(1u << 18),
                                .num_edges = scaled(16u << 18),
                                .seed = 102});
  });
  return g;
}

/// Facebook stand-in: sparse undirected social graph (avg deg ~3.1).
inline const CsrGraph& facebook_graph() {
  static const CsrGraph g = make_dataset(
      "facebook",
      [] { return pregel::graph::random_undirected(scaled(1u << 18), 3.1, 103); },
      /*symmetrize_override=*/true);
  return g;
}

/// Twitter stand-in: dense skewed undirected graph (avg deg ~48).
inline const CsrGraph& twitter_graph() {
  static const CsrGraph g = make_dataset(
      "twitter",
      [] {
        return pregel::graph::rmat_undirected({.num_vertices = scaled(1u << 16),
                                               .num_edges = scaled(24u << 16),
                                               .seed = 104});
      },
      /*symmetrize_override=*/true);
  return g;
}

/// Chain and random tree (pointer-jumping inputs).
inline const CsrGraph& chain_graph() {
  static const CsrGraph g = make_dataset(
      "chain", [] { return pregel::graph::chain(scaled(300'000)); });
  return g;
}
inline const CsrGraph& tree_graph() {
  static const CsrGraph g = make_dataset(
      "tree", [] { return pregel::graph::random_tree(scaled(300'000), 105); });
  return g;
}

/// USA-road stand-in: weighted mesh with shortcuts.
inline const CsrGraph& usa_graph() {
  static const CsrGraph g = make_dataset("usa", [] {
    return pregel::graph::grid_road(scaled(300), scaled(300), scaled(20'000),
                                    106);
  });
  return g;
}

/// Wikipedia stand-in for the SCC experiments: the plain R-MAT graph's
/// SCCs all have tiny diameter, so Min-Label converges in ~20 supersteps —
/// but the REAL Wikipedia takes the paper's SCC 1247 supersteps because
/// its large SCCs have long internal paths. We restore that regime by
/// overlaying directed cycles (length 256) on a shuffled vertex subset:
/// label waves must walk the cycles, which is exactly the slow-convergence
/// behaviour Table VII's propagation channel eliminates.
inline const CsrGraph& wikipedia_scc_graph() {
  static const CsrGraph g = make_dataset("wikipedia_scc", [] {
    const pregel::graph::VertexId core_n = scaled(1u << 16);
    constexpr std::uint32_t kCycleLen = 192;
    const pregel::graph::VertexId cycle_n = scaled(1u << 15);
    Graph base = pregel::graph::rmat({.num_vertices = core_n,
                                      .num_edges = scaled(6u << 16),
                                      .seed = 108});
    // Append cycle-only vertices: each disjoint directed cycle is its own
    // SCC with diameter kCycleLen-1. One-way core->cycle edges attach them
    // to the graph without creating shortcuts through the core, so label
    // waves must walk the full cycle.
    std::mt19937_64 rng(109);
    std::uniform_int_distribution<pregel::graph::VertexId> core_pick(
        0, core_n - 1);
    for (pregel::graph::VertexId i = 0; i < cycle_n; ++i) base.add_vertex();
    for (pregel::graph::VertexId start = 0; start + kCycleLen <= cycle_n;
         start += kCycleLen) {
      for (std::uint32_t i = 0; i < kCycleLen; ++i) {
        base.add_edge(core_n + start + i,
                      core_n + start + (i + 1) % kCycleLen);
      }
      base.add_edge(core_pick(rng), core_n + start);  // one-way entry
    }
    return base;
  });
  return g;
}

/// Skew stand-in for the work-stealing rows: an R-MAT power-law graph
/// with permute_ids=false, so the hubs stay clustered at low vertex ids.
/// A contiguous range partition then hands rank 0 nearly all the edge
/// work, and within a rank the hub chunks are the regime PGCH_STEAL
/// exists for — with the default permutation the skew averages out
/// across ranges and the comparison shows nothing.
inline const CsrGraph& rmat_skew_graph() {
  static const CsrGraph g = make_dataset("rmat_skew", [] {
    return pregel::graph::rmat({.num_vertices = scaled(1u << 16),
                                .num_edges = scaled(16u << 16),
                                .seed = 110,
                                .permute_ids = false});
  });
  return g;
}

/// RMAT24 stand-in: weighted skewed graph, symmetrized for MSF.
inline const CsrGraph& rmat24_graph() {
  static const CsrGraph g = make_dataset(
      "rmat24",
      [] {
        return pregel::graph::rmat({.num_vertices = scaled(1u << 16),
                                    .num_edges = scaled(16u << 16),
                                    .seed = 107,
                                    .weighted = true,
                                    .max_weight = 10'000})
            .symmetrized();
      },
      /*symmetrize_override=*/true);
  return g;
}

// ---- distributed views ----------------------------------------------------

/// Touch every slice page so the first program benched on a dataset is not
/// charged the page-in cost of the lazily-built shared graph.
inline DistributedGraph warmed(DistributedGraph dg) {
  std::uint64_t checksum = 0;
  for (int rank = 0; rank < dg.num_workers(); ++rank) {
    for (std::uint32_t l = 0; l < dg.num_local(rank); ++l) {
      for (const auto& e : dg.out(rank, l)) checksum += e.dst;
    }
  }
  benchmark::DoNotOptimize(checksum);
  return dg;
}

/// Non-owning shared_ptr to a cached dataset: every dataset here is a
/// function-local static, so its lifetime outlives all DistributedGraphs
/// and the arrays need not be copied per view.
inline std::shared_ptr<const CsrGraph> shared(const CsrGraph& g) {
  return {std::shared_ptr<const CsrGraph>(), &g};
}

inline DistributedGraph hash_dg(const CsrGraph& g) {
  return warmed(DistributedGraph(
      shared(g),
      pregel::graph::hash_partition(g.num_vertices(), num_workers())));
}

/// Rvalue form for one-off graphs built inline: takes ownership (the
/// non-owning `shared()` path would dangle on a temporary).
inline DistributedGraph hash_dg(CsrGraph&& g) {
  auto owned = std::make_shared<const CsrGraph>(std::move(g));
  return warmed(DistributedGraph(
      owned,
      pregel::graph::hash_partition(owned->num_vertices(), num_workers())));
}

inline DistributedGraph range_dg(const CsrGraph& g) {
  return warmed(DistributedGraph(
      shared(g),
      pregel::graph::range_partition(g.num_vertices(), num_workers())));
}

inline DistributedGraph voronoi_dg(const CsrGraph& g) {
  pregel::graph::VoronoiOptions opts;
  opts.num_workers = num_workers();
  return warmed(
      DistributedGraph(shared(g), pregel::graph::voronoi_partition(g, opts)));
}

inline DistributedGraph voronoi_dg(CsrGraph&& g) {
  auto owned = std::make_shared<const CsrGraph>(std::move(g));
  pregel::graph::VoronoiOptions opts;
  opts.num_workers = num_workers();
  return warmed(
      DistributedGraph(owned, pregel::graph::voronoi_partition(*owned, opts)));
}

/// Cached helper: build once, reuse across benchmark registrations.
#define PGCH_CACHED_DG(name, expr)                  \
  inline const bench::DistributedGraph& name() {    \
    static const bench::DistributedGraph dg = expr; \
    return dg;                                      \
  }

// ---- machine-readable results (PGCH_BENCH_JSON / --json) ------------------
//
// Every run_case() appends one JSON record per benchmark to the sink
// file, so the perf trajectory (BENCH_*.json) is populated by the same
// binaries the tables come from:
//   {"bench": "PR", "dataset": "Wikipedia", "name": ..., "wall_s": ...,
//    "msg_bytes": ..., "supersteps": ..., "comm_rounds": ...,
//    "serialize_s": ..., "exchange_s": ..., "deliver_s": ...,
//    "rank_imbalance": ..., "slot_imbalance": ...,
//    "threads": ..., "transport": ...}
// The path comes from --json=<path> (stripped before google-benchmark
// sees the argv) or the PGCH_BENCH_JSON environment variable; records are
// appended as JSON lines.

/// The sink path ("" = disabled). Set once at startup by PGCH_BENCH_MAIN.
inline std::string& json_sink_path() {
  static std::string path = [] {
    const char* env = std::getenv("PGCH_BENCH_JSON");
    return std::string(env != nullptr ? env : "");
  }();
  return path;
}

/// Consume a --json=<path> / --json <path> flag before google-benchmark
/// rejects it as unrecognized.
inline void init_json_sink(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_sink_path() = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < *argc) {
      json_sink_path() = argv[++i];
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

/// Append one benchmark's record. Benchmark names follow the
/// <Bench>_<Dataset>_<Variant> convention; the first two tokens become
/// the bench/dataset fields (the full name ships too).
inline void record_json(const std::string& name,
                        const pregel::runtime::RunStats& stats) {
  const std::string& path = json_sink_path();
  if (path.empty()) return;
  // Multi-process runs inherit PGCH_BENCH_JSON on every rank; only rank 0
  // records, so a 2-rank run appends one row, not two near-duplicates.
  if (pregel::core::LaunchConfig::from_env().rank > 0) return;
  std::string bench = name, dataset;
  if (const auto cut = name.find('_'); cut != std::string::npos) {
    bench = name.substr(0, cut);
    dataset = name.substr(cut + 1);
    if (const auto cut2 = dataset.find('_'); cut2 != std::string::npos) {
      dataset = dataset.substr(0, cut2);
    }
  }
  const bool tcp = pregel::core::LaunchConfig::from_env().transport ==
                   pregel::runtime::TransportKind::kTcp;
  std::ostringstream os;
  os << "{\"bench\": \"" << bench << "\", \"dataset\": \"" << dataset
     << "\", \"name\": \"" << name << "\", \"wall_s\": " << stats.seconds
     << ", \"msg_bytes\": " << stats.message_bytes
     << ", \"supersteps\": " << stats.supersteps
     << ", \"pull_supersteps\": "
     << std::count(stats.direction_per_superstep.begin(),
                   stats.direction_per_superstep.end(), std::uint8_t{1})
     << ", \"comm_rounds\": " << stats.comm_rounds
     << ", \"compute_s\": " << stats.compute_seconds
     << ", \"comm_s\": " << stats.comm_seconds
     << ", \"serialize_s\": " << stats.serialize_seconds
     << ", \"exchange_s\": " << stats.exchange_seconds
     << ", \"deliver_s\": " << stats.deliver_seconds
     << ", \"rank_imbalance\": " << stats.rank_imbalance()
     << ", \"slot_imbalance\": " << stats.slot_imbalance()
     << ", \"threads\": " << pregel::runtime::compute_threads_from_env()
     << ", \"workers\": " << num_workers();
  // How the dataset got into memory (make_dataset, or a load bench's own
  // re-timing): seconds + array bytes ride every row of that dataset.
  const auto ls = load_stats_registry().find(lowercased(dataset));
  if (ls != load_stats_registry().end()) {
    os << ", \"load_s\": " << ls->second.load_s
       << ", \"graph_bytes\": " << ls->second.graph_bytes;
  }
  os << ", \"transport\": \"" << (tcp ? "tcp" : "inprocess") << "\"}";
  std::ofstream out(path, std::ios::app);
  out << os.str() << "\n";
}

// ---- harness glue ---------------------------------------------------------

/// Run one engine program and report it paper-style: manual wall time,
/// message MB and superstep count as counters (plus a JSON record when
/// the sink is configured). `name` is the benchmark's registered name —
/// call sites pass __func__ (benchmark::State has no name accessor in
/// the library version the image ships).
template <typename WorkerT>
void run_case(benchmark::State& state, const char* name,
              const DistributedGraph& dg,
              const std::function<void(WorkerT&)>& configure = nullptr) {
  double mb = 0.0;
  double steps = 0.0;
  pregel::runtime::RunStats last;
  for (auto _ : state) {
    const auto stats = pregel::algo::run_only<WorkerT>(dg, configure);
    state.SetIterationTime(stats.seconds);
    mb = stats.message_mb();
    steps = static_cast<double>(stats.supersteps);
    last = stats;
  }
  state.counters["msg_MB"] = mb;
  state.counters["supersteps"] = steps;
  record_json(name, last);
}

}  // namespace bench

/// Drop-in replacement for BENCHMARK_MAIN() that installs the JSON sink
/// (--json=<path>, stripped from argv) before google-benchmark parses it.
#define PGCH_BENCH_MAIN()                                                 \
  int main(int argc, char** argv) {                                       \
    bench::init_json_sink(&argc, argv);                                   \
    benchmark::Initialize(&argc, argv);                                   \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;     \
    benchmark::RunSpecifiedBenchmarks();                                  \
    return 0;                                                             \
  }
