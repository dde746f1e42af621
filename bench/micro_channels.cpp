// Micro/ablation benches for the design choices DESIGN.md calls out:
//  * substrate costs (buffer serialization, exchange rounds),
//  * receiver-side combining via hash staging vs the scatter channel's
//    pre-sorted linear scan (the Section V-B1 analysis),
//  * the scatter handshake amortization (identifier shipping is a one-time
//    cost; steady-state supersteps transmit bare values),
//  * request deduplication under extreme skew (star graph),
//  * the locality partitioner's edge-cut vs hash placement.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/pointer_jumping.hpp"
#include "algorithms/sssp.hpp"
#include "bench_common.hpp"
#include "runtime/barrier.hpp"
#include "runtime/buffer.hpp"
#include "runtime/exchange.hpp"
#include "runtime/team.hpp"

namespace {

using namespace pregel;

// ---------------------------------------------------------- substrate -----

void Substrate_BufferWriteRead(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  runtime::Buffer buf;
  for (auto _ : state) {
    buf.clear();
    for (std::size_t i = 0; i < n; ++i) {
      buf.write<std::uint64_t>(i);
    }
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += buf.read<std::uint64_t>();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          sizeof(std::uint64_t) * 2);
}
BENCHMARK(Substrate_BufferWriteRead)->Unit(benchmark::kMillisecond);

void Substrate_ExchangeRound(benchmark::State& state) {
  const int workers = bench::num_workers();
  const auto payload = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    runtime::Barrier barrier(workers);
    runtime::BufferExchange ex(workers, barrier);
    runtime::WorkerTeam::run(workers, [&](int rank) {
      std::vector<std::byte> data(payload);
      for (int round = 0; round < 50; ++round) {
        for (int to = 0; to < workers; ++to) {
          ex.outbox(rank, to).write_bytes(data.data(), data.size());
        }
        ex.exchange(rank);
      }
    });
    benchmark::DoNotOptimize(ex.total_bytes());
  }
}
BENCHMARK(Substrate_ExchangeRound)
    ->Arg(1 << 10)
    ->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

// --------------------------------- storage: CSR vs builder adjacency ------

/// Full neighbor scan (the inner loop of every compute phase) over the
/// same Wikipedia-sized graph in both representations. The builder's
/// adjacency-of-vectors chases one heap pointer per vertex — and after a
/// realistic load (edges arriving in file/generator order, not grouped by
/// source) its per-vertex blocks are scattered across the heap. The CSR
/// scan is a single linear pass over the packed edge array.
const bench::CsrGraph& scan_dataset(int which) {
  return which == 0 ? bench::wikipedia_graph() : bench::webuk_graph();
}

/// Rebuild a dataset in the builder form with the edge-arrival order a
/// loader actually sees: interleaved across sources, so per-vertex vector
/// reallocations scatter across the heap.
const pregel::graph::Graph& scan_builder(int which) {
  static pregel::graph::Graph cache[2];
  pregel::graph::Graph& b = cache[which];
  if (b.num_vertices() == 0) {
    const auto& csr = scan_dataset(which);
    std::vector<std::pair<pregel::graph::VertexId, pregel::graph::VertexId>>
        edges;
    edges.reserve(static_cast<std::size_t>(csr.num_edges()));
    for (pregel::graph::VertexId u = 0; u < csr.num_vertices(); ++u) {
      for (const auto v : csr.neighbors(u)) edges.emplace_back(u, v);
    }
    std::shuffle(edges.begin(), edges.end(), std::mt19937_64(12345));
    b = pregel::graph::Graph(csr.num_vertices());
    for (const auto& [u, v] : edges) b.add_edge(u, v);
  }
  return b;
}

void Storage_NeighborScan_Builder(benchmark::State& state) {
  const auto& g = scan_builder(static_cast<int>(state.range(0)));
  std::uint64_t acc = 0;
  for (auto _ : state) {
    for (pregel::graph::VertexId u = 0; u < g.num_vertices(); ++u) {
      for (const auto& e : g.out(u)) acc += e.dst;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
void Storage_NeighborScan_Csr(benchmark::State& state) {
  const auto& g = scan_dataset(static_cast<int>(state.range(0)));
  std::uint64_t acc = 0;
  for (auto _ : state) {
    for (pregel::graph::VertexId u = 0; u < g.num_vertices(); ++u) {
      for (const auto v : g.neighbors(u)) acc += v;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
// Arg 0: Wikipedia stand-in (1.3M edges); arg 1: WebUK stand-in (4.2M).
BENCHMARK(Storage_NeighborScan_Builder)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(Storage_NeighborScan_Csr)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// -------------------------------------- combining: hash vs linear scan ----

PGCH_CACHED_DG(wiki, bench::hash_dg(bench::wikipedia_graph()))

void Combining_HashStaging_PR5(benchmark::State& s) {
  bench::run_case<algo::PageRankCombined>(
      s, __func__, wiki(), [](algo::PageRankCombined& w) { w.iterations = 5; });
}
void Combining_LinearScan_PR5(benchmark::State& s) {
  bench::run_case<algo::PageRankScatter>(
      s, __func__, wiki(), [](algo::PageRankScatter& w) { w.iterations = 5; });
}
BENCHMARK(Combining_HashStaging_PR5)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);
BENCHMARK(Combining_LinearScan_PR5)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

// ------------------------------------------ scatter handshake amortization

/// Bytes per superstep for a short vs a long scatter run: the handshake
/// (destination indices) is paid once, so the long run's per-superstep
/// byte cost must drop markedly below the short run's.
void Scatter_HandshakeAmortization(benchmark::State& state) {
  const int iterations = static_cast<int>(state.range(0));
  double per_step_mb = 0.0;
  for (auto _ : state) {
    const auto stats = algo::run_only<algo::PageRankScatter>(
        wiki(), [iterations](algo::PageRankScatter& w) {
          w.iterations = iterations;
        });
    state.SetIterationTime(stats.seconds);
    per_step_mb = stats.message_mb() / stats.supersteps;
  }
  state.counters["MB_per_superstep"] = per_step_mb;
}
BENCHMARK(Scatter_HandshakeAmortization)
    ->Arg(2)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

// ----------------------------------------- request dedup on extreme skew --

PGCH_CACHED_DG(star, bench::hash_dg(
                         pregel::graph::star(bench::scaled(200'000)).finalize()))

void Skew_Star_AskReply(benchmark::State& s) {
  bench::run_case<algo::PointerJumpingBasic>(s, __func__, star());
}
void Skew_Star_RequestRespond(benchmark::State& s) {
  bench::run_case<algo::PointerJumpingReqResp>(s, __func__, star());
}
BENCHMARK(Skew_Star_AskReply)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);
BENCHMARK(Skew_Star_RequestRespond)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

// -------------------------------------- scatter-combine PR broadcast ----

/// Receiver-centric combining on the static PageRank broadcast: one value
/// per (worker, unique destination).
void Broadcast_ScatterCombine_PR(benchmark::State& s) {
  bench::run_case<algo::PageRankScatter>(
      s, __func__, wiki(), [](algo::PageRankScatter& w) { w.iterations = 10; });
}
BENCHMARK(Broadcast_ScatterCombine_PR)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

// --------------------------- Propagation with f = dist + w on SSSP -------

/// Propagation with a per-edge f collapses SSSP's O(diameter)
/// supersteps into one communication phase — most visible on the
/// high-diameter road network.
PGCH_CACHED_DG(road, bench::hash_dg(bench::usa_graph()))

void Sssp_MessagePassing_Road(benchmark::State& s) {
  bench::run_case<algo::Sssp>(s, __func__, road(),
                              [](algo::Sssp& w) { w.source = 0; });
}
void Sssp_PropagationW_Road(benchmark::State& s) {
  bench::run_case<algo::SsspPropagation>(
      s, __func__, road(), [](algo::SsspPropagation& w) { w.source = 0; });
}
BENCHMARK(Sssp_MessagePassing_Road)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);
BENCHMARK(Sssp_PropagationW_Road)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime()
    ->Iterations(1);

// ------------------- frontier: sparse-superstep scan cost (DESIGN.md §6) --

/// SSSP on the grid-road stand-in drives the classic sparse frontier: a
/// relaxation wavefront touching a sliver of V each superstep. Capture
/// rank 0's real per-superstep frontiers from an instrumented run, then
/// time the two iteration strategies the engine switches between: the
/// pre-SoA full linear scan (every superstep pays O(V) regardless of how
/// few vertices are active) vs the ActiveSet word-scan (O(active)).
/// Args 0/1 pick a small/large grid: FullScan time grows with V, WordScan
/// tracks the frontier and stays put — sparse supersteps no longer scale
/// with total V.

struct FrontierCapture {
  std::uint32_t num_local = 0;  ///< rank 0's slice size (the scan's V)
  std::vector<std::vector<std::uint32_t>> frontiers;  ///< per superstep
  std::uint64_t active_total = 0;
};

class SsspFrontierProbe : public algo::Sssp {
 public:
  static inline std::vector<std::vector<std::uint32_t>>* sink = nullptr;
  void begin_superstep() override {
    if (rank() == 0) {
      sink->emplace_back(frontier().begin(), frontier().end());
    }
  }
};

const FrontierCapture& road_frontiers(int which) {
  static FrontierCapture caps[2];
  FrontierCapture& cap = caps[which];
  if (cap.frontiers.empty()) {
    const std::uint32_t side = which == 0 ? bench::scaled(150)
                                          : bench::scaled(300);
    // No shortcut edges: a pure grid keeps the wavefront O(side) wide, so
    // the frontier is a thin sliver of V — the regime this bench measures.
    auto dg = bench::hash_dg(
        pregel::graph::grid_road(side, side, /*extra_edges=*/0, 106)
            .finalize());
    SsspFrontierProbe::sink = &cap.frontiers;
    algo::run_only<SsspFrontierProbe>(
        dg, [](SsspFrontierProbe& w) { w.source = 0; });
    SsspFrontierProbe::sink = nullptr;
    cap.num_local = dg.num_local(0);
    for (const auto& f : cap.frontiers) cap.active_total += f.size();
  }
  return cap;
}

std::vector<runtime::ActiveSet> frontier_sets(const FrontierCapture& cap) {
  std::vector<runtime::ActiveSet> sets;
  sets.reserve(cap.frontiers.size());
  for (const auto& f : cap.frontiers) {
    runtime::ActiveSet s(cap.num_local, /*value=*/false);
    for (const std::uint32_t lidx : f) s.set(lidx);
    sets.push_back(std::move(s));
  }
  return sets;
}

void report_frontier_counters(benchmark::State& state,
                              const FrontierCapture& cap) {
  state.counters["supersteps"] = static_cast<double>(cap.frontiers.size());
  state.counters["active_ratio"] =
      cap.frontiers.empty()
          ? 0.0
          : static_cast<double>(cap.active_total) /
                (static_cast<double>(cap.num_local) *
                 static_cast<double>(cap.frontiers.size()));
  // One state iteration replays every superstep: items/s ~ supersteps/s,
  // i.e. the inverse of the per-superstep scan time.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cap.frontiers.size()));
}

void Frontier_SparseSuperstep_FullScan(benchmark::State& state) {
  const auto& cap = road_frontiers(static_cast<int>(state.range(0)));
  const auto sets = frontier_sets(cap);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    for (const auto& s : sets) {
      for (std::uint32_t lidx = 0; lidx < cap.num_local; ++lidx) {
        if (s.test(lidx)) acc += lidx;
      }
    }
  }
  benchmark::DoNotOptimize(acc);
  report_frontier_counters(state, cap);
}
void Frontier_SparseSuperstep_WordScan(benchmark::State& state) {
  const auto& cap = road_frontiers(static_cast<int>(state.range(0)));
  const auto sets = frontier_sets(cap);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    for (const auto& s : sets) {
      s.for_each_set([&](std::uint32_t lidx) { acc += lidx; });
    }
  }
  benchmark::DoNotOptimize(acc);
  report_frontier_counters(state, cap);
}
BENCHMARK(Frontier_SparseSuperstep_FullScan)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(Frontier_SparseSuperstep_WordScan)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------- partitioner edge cut ---

void Partition_EdgeCut(benchmark::State& state) {
  const auto& g = bench::wikipedia_graph();
  double hash_cut = 0.0, voronoi_cut = 0.0;
  for (auto _ : state) {
    const auto hash =
        pregel::graph::hash_partition(g.num_vertices(), bench::num_workers());
    pregel::graph::VoronoiOptions opts;
    opts.num_workers = bench::num_workers();
    const auto voronoi = pregel::graph::voronoi_partition(g, opts);
    hash_cut = hash.edge_cut(g);
    voronoi_cut = voronoi.edge_cut(g);
    benchmark::DoNotOptimize(voronoi.owner.data());
  }
  state.counters["hash_cut"] = hash_cut;
  state.counters["voronoi_cut"] = voronoi_cut;
}
BENCHMARK(Partition_EdgeCut)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

PGCH_BENCH_MAIN()
