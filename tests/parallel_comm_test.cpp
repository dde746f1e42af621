// Tests for the parallel communication phase (DESIGN.md section 8):
// sharded channel serialize, stage-time combining and range-partitioned
// delivery must be invisible in every observable — vertex
// results (bitwise, floats included), per-channel payload bytes,
// superstep and communication-round counts — across thread counts (1 runs
// every channel's one code path inline as a single slot, more fans it
// over the pool) and both transports.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/blogel_wcc.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/pp_simple.hpp"
#include "algorithms/runner.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "core/pregel_channel.hpp"
#include "graph/generators.hpp"
#include "runtime/barrier.hpp"
#include "runtime/exchange.hpp"
#include "runtime/tcp_transport.hpp"
#include "runtime/team.hpp"
#include "tcp_mesh.hpp"

namespace {

using namespace pregel;
using namespace pregel::core;
using pregel::runtime::RunStats;
using pregel::runtime::TcpEndpoint;
using pregel::runtime::TcpTransport;
using pregel::runtime::WorkerTeam;

/// The thread counts of the parity matrix: one slot everywhere (the
/// baseline), then the pool at an odd and an even slot count.
constexpr int kThreads[] = {1, 3, 4};

std::string mode_name(int threads) {
  return "threads=" + std::to_string(threads);
}

/// Pin the thread count so the matrix is deterministic regardless of the
/// PGCH_* variables the CI legs set.
template <typename WorkerT>
std::function<void(WorkerT&)> pin(int threads,
                                  std::function<void(WorkerT&)> extra = {}) {
  return [threads, extra](WorkerT& w) {
    w.set_compute_threads(threads);
    if (extra) extra(w);
  };
}

void expect_identical_traffic(const RunStats& got, const RunStats& want,
                              const std::string& label) {
  EXPECT_EQ(got.supersteps, want.supersteps) << label;
  EXPECT_EQ(got.comm_rounds, want.comm_rounds) << label;
  EXPECT_EQ(got.message_bytes, want.message_bytes) << label;
  EXPECT_EQ(got.frame_bytes, want.frame_bytes) << label;
  EXPECT_EQ(got.bytes_by_channel, want.bytes_by_channel) << label;
  EXPECT_EQ(got.bytes_per_superstep, want.bytes_per_superstep) << label;
  EXPECT_EQ(got.active_per_superstep, want.active_per_superstep) << label;
}

/// Run WorkerT across the whole mode matrix and require byte-identical
/// results and traffic. OutT must compare exactly (use bit patterns for
/// floats).
template <typename WorkerT, typename OutT, typename Extract>
void run_matrix(const graph::DistributedGraph& dg, Extract extract,
                std::function<void(WorkerT&)> extra = {}) {
  std::vector<OutT> baseline;
  const RunStats want = algo::run_collect<WorkerT>(
      dg, baseline, extract, pin<WorkerT>(kThreads[0], extra));
  for (std::size_t i = 1; i < std::size(kThreads); ++i) {
    std::vector<OutT> got;
    const RunStats stats = algo::run_collect<WorkerT>(
        dg, got, extract, pin<WorkerT>(kThreads[i], extra));
    EXPECT_EQ(got, baseline) << mode_name(kThreads[i]);
    expect_identical_traffic(stats, want, mode_name(kThreads[i]));
  }
}

// Message-heavy inputs: comfortably above kParallelCommMinItems per rank
// per round, so the pool paths actually fork (tiny inputs would only
// exercise the sequential fallback inside the new staging).
graph::DistributedGraph rmat_dg(int workers, bool symmetric = false) {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 12;
  opts.num_edges = 1u << 15;
  opts.seed = 42;
  graph::Graph g = graph::rmat(opts);
  if (symmetric) g = g.symmetrized();
  return graph::DistributedGraph(
      g, graph::hash_partition(g.num_vertices(), workers));
}

graph::DistributedGraph ring_dg(graph::VertexId n, int workers) {
  graph::Graph g(n);
  for (graph::VertexId v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  return graph::DistributedGraph(g, graph::hash_partition(n, workers));
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// ------------------------------------------ channel engine, per channel --

TEST(ParallelComm, CombinedMessageInexactBitwise) {
  // PageRank: double-sum CombinedMessage (raw-log staging; the merge must
  // replay the sequential fold exactly) + an Aggregator.
  const auto dg = rmat_dg(4);
  run_matrix<algo::PageRankCombined, std::uint64_t>(
      dg, [](const algo::PRVertex& v) { return bits(v.value().rank); },
      [](algo::PageRankCombined& w) { w.iterations = 6; });
}

TEST(ParallelComm, CombinedMessageExactStageTimeCombining) {
  // WCC: min-label CombinedMessage — the stage-time-combining path.
  const auto dg = rmat_dg(4, /*symmetric=*/true);
  run_matrix<algo::WccBasic, graph::VertexId>(
      dg, [](const algo::WccVertex& v) { return v.value().label; });
}

TEST(ParallelComm, CombinedMessageExactMinSssp) {
  const auto dg = graph::DistributedGraph(
      graph::grid_road(48, 48, 600, 7),
      graph::hash_partition(48 * 48, 4));
  run_matrix<algo::Sssp, std::uint64_t>(
      dg, [](const algo::SsspVertex& v) { return v.value().dist; },
      [](algo::Sssp& w) { w.source = 0; });
}

TEST(ParallelComm, ScatterCombineSegmentedSerialize) {
  const auto dg = rmat_dg(4);
  run_matrix<algo::PageRankScatter, std::uint64_t>(
      dg, [](const algo::PRVertex& v) { return bits(v.value().rank); },
      [](algo::PageRankScatter& w) { w.iterations = 6; });
}

TEST(ParallelComm, PropagationSequentialDeliveryFallback) {
  // Propagation fans only its payload write-out over the pool; delivery
  // stays sequential (its BFS queue order feeds the next round's bytes).
  const auto dg = rmat_dg(4, /*symmetric=*/true);
  run_matrix<algo::WccPropagation, graph::VertexId>(
      dg, [](const algo::WccVertex& v) { return v.value().label; });
}

TEST(ParallelComm, PropagationWeightedParallelWriteOut) {
  const auto dg = graph::DistributedGraph(
      graph::grid_road(48, 48, 600, 7),
      graph::hash_partition(48 * 48, 4));
  run_matrix<algo::SsspPropagation, std::uint64_t>(
      dg, [](const algo::SsspVertex& v) { return v.value().dist; },
      [](algo::SsspPropagation& w) { w.source = 0; });
}

/// DirectMessage: superstep 1 sends one id per out-edge, superstep 2 sums
/// the arrivals.
struct SumValue {
  std::uint64_t sum = 0;
};
using SumVertex = Vertex<SumValue>;

class DirectSumWorker : public Worker<SumVertex> {
 public:
  void compute(SumVertex& v) override {
    if (step_num() == 1) {
      for (const auto& e : v.edges()) msg_.send_message(e.dst, v.id());
    } else {
      for (const auto m : msg_.get_iterator()) v.value().sum += m;
    }
    v.vote_to_halt();
  }

 private:
  DirectMessage<SumVertex, std::uint64_t> msg_{this, "sum"};
};

TEST(ParallelComm, DirectMessageShardedStaging) {
  const auto dg = rmat_dg(4);
  run_matrix<DirectSumWorker, std::uint64_t>(
      dg, [](const SumVertex& v) { return v.value().sum; });
}

/// RequestRespond: every vertex requests a peer's secret; the parallel
/// path produces the replies over the pool.
struct FetchValue {
  std::uint64_t secret = 0;
  std::uint64_t fetched = 0;
};
using FetchVertex = Vertex<FetchValue>;

class ParFetchWorker : public Worker<FetchVertex> {
 public:
  graph::VertexId n = 0;

  void compute(FetchVertex& v) override {
    if (step_num() == 1) {
      v.value().secret = 5000 + v.id();
      rr_.add_request((v.id() + 7) % n);
    } else {
      v.value().fetched = rr_.get_respond();
    }
    v.vote_to_halt();
  }

 private:
  RequestRespond<FetchVertex, std::uint64_t> rr_{
      this, [](const FetchVertex& u) { return u.value().secret; }, "fetch"};
};

TEST(ParallelComm, RequestRespondParallelReplies) {
  constexpr graph::VertexId kN = 20'000;  // > threshold requests per rank
  const auto dg = ring_dg(kN, 2);
  run_matrix<ParFetchWorker, std::uint64_t>(
      dg, [](const FetchVertex& v) { return v.value().fetched; },
      [](ParFetchWorker& w) { w.n = kN; });
  // Spot-check correctness, not just parity.
  std::vector<std::uint64_t> fetched;
  algo::run_collect<ParFetchWorker>(
      dg, fetched, [](const FetchVertex& v) { return v.value().fetched; },
      pin<ParFetchWorker>(3, [](ParFetchWorker& w) { w.n = kN; }));
  for (graph::VertexId v = 0; v < kN; ++v) {
    ASSERT_EQ(fetched[v], 5000u + (v + 7) % kN);
  }
}

// ------------------------------------------------------ baseline engines --

TEST(ParallelComm, PPWorkerRangePartitionedDelivery) {
  const auto dg = rmat_dg(4);
  run_matrix<algo::PPPageRank, std::uint64_t>(
      dg, [](const algo::PRVertex& v) { return bits(v.value().rank); },
      [](algo::PPPageRank& w) { w.iterations = 6; });
}

TEST(ParallelComm, BlockWorkerRangePartitionedDelivery) {
  const auto dg = rmat_dg(4, /*symmetric=*/true);
  run_matrix<algo::BlogelWcc, graph::VertexId>(
      dg, [](const algo::WccVertex& v) { return v.value().label; });
}

// -------------------------------------------------------- TCP transport --

using pregel::testing::make_mesh;  // tests/tcp_mesh.hpp (EADDRINUSE retry)

template <typename WorkerT, typename OutT, typename Extract>
RunStats run_tcp(const graph::DistributedGraph& dg, int world,
                 std::vector<OutT>& out, Extract extract,
                 const std::function<void(WorkerT&)>& configure) {
  out.assign(dg.num_vertices(), OutT{});
  auto mesh = make_mesh(world);
  std::vector<RunStats> merged(static_cast<std::size_t>(world));
  WorkerTeam::run(world, [&](int rank) {
    merged[static_cast<std::size_t>(rank)] =
        core::launch_distributed<WorkerT>(
            dg, *mesh[static_cast<std::size_t>(rank)], rank, configure,
            [&](WorkerT& w, int /*r*/) {
              w.for_each_vertex(
                  [&](const auto& v) { out[v.id()] = extract(v); });
            });
  });
  return merged[0];
}

TEST(ParallelComm, TcpParityPageRankParallelEverything) {
  const auto dg = rmat_dg(2);
  const auto extract = [](const algo::PRVertex& v) {
    return bits(v.value().rank);
  };
  const auto tune = [](algo::PageRankCombined& w) { w.iterations = 6; };

  std::vector<std::uint64_t> expect;
  const RunStats inproc = algo::run_collect<algo::PageRankCombined>(
      dg, expect, extract,
      pin<algo::PageRankCombined>(3, tune));

  std::vector<std::uint64_t> got;
  const RunStats tcp = run_tcp<algo::PageRankCombined>(
      dg, 2, got, extract,
      pin<algo::PageRankCombined>(3, tune));

  EXPECT_EQ(got, expect);
  expect_identical_traffic(tcp, inproc, "tcp vs inprocess");

  // And the parallel TCP run must match a fully sequential TCP run.
  std::vector<std::uint64_t> seq;
  const RunStats tcp_seq = run_tcp<algo::PageRankCombined>(
      dg, 2, seq, extract,
      pin<algo::PageRankCombined>(1, tune));
  EXPECT_EQ(seq, got);
  expect_identical_traffic(tcp_seq, tcp, "tcp seq vs tcp parallel");
}

TEST(ParallelComm, TcpParityWccExactCombiner) {
  const auto dg = rmat_dg(2, /*symmetric=*/true);
  const auto extract = [](const algo::WccVertex& v) {
    return v.value().label;
  };

  std::vector<graph::VertexId> expect;
  const RunStats inproc = algo::run_collect<algo::WccBasic>(
      dg, expect, extract, pin<algo::WccBasic>(1));

  std::vector<graph::VertexId> got;
  const RunStats tcp = run_tcp<algo::WccBasic>(
      dg, 2, got, extract, pin<algo::WccBasic>(3));

  EXPECT_EQ(got, expect);
  expect_identical_traffic(tcp, inproc, "tcp parallel vs inprocess seq");
}

// ------------------------------------------------------------ unit bits --

/// What make_combiner recorded, and what with_fold folds 3 and 5 to.
struct CombinerRow {
  const char* what;
  CombineOp op;
  bool exact;
  double folded;
};

template <typename T>
CombinerRow row_of(const char* what, const Combiner<T>& c) {
  double folded = 0;
  with_fold(c, [&](auto fold) {
    folded = static_cast<double>(fold(static_cast<T>(3), static_cast<T>(5)));
  });
  return {what, c.op, c.exact, folded};
}

TEST(ParallelComm, MakeCombinerRecordsStockOpAndExactness) {
  // exact follows from the op: selections always regroup exactly, sums
  // only over integers; custom functions are inexact unless told. A
  // custom function that adds must still fold through fn (so its own
  // body runs), which the side-effect counter shows.
  int custom_calls = 0;
  const auto custom_add = [&custom_calls](const int& a, const int& b) {
    ++custom_calls;
    return a + b;
  };
  const CombinerRow rows[] = {
      row_of("c_sum double", make_combiner(c_sum, 0.0)),
      row_of("c_sum uint64", make_combiner(c_sum, std::uint64_t{0})),
      row_of("c_min", make_combiner(c_min, graph::kInvalidVertex)),
      row_of("c_max", make_combiner(c_max, std::uint64_t{0})),
      row_of("c_or", make_combiner(c_or, false)),
      row_of("custom add", make_combiner(custom_add, 0)),
      row_of("custom exact",
             make_combiner([](const int& a, const int& b) { return a ^ b; },
                           0, /*exact=*/true)),
  };
  const CombinerRow want[] = {
      {"c_sum double", CombineOp::kSum, false, 8},
      {"c_sum uint64", CombineOp::kSum, true, 8},
      {"c_min", CombineOp::kMin, true, 3},
      {"c_max", CombineOp::kMax, true, 5},
      {"c_or", CombineOp::kOr, true, 1},
      {"custom add", CombineOp::kCustom, false, 8},
      {"custom exact", CombineOp::kCustom, true, 6},
  };
  ASSERT_EQ(std::size(rows), std::size(want));
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    EXPECT_EQ(rows[i].op, want[i].op) << want[i].what;
    EXPECT_EQ(rows[i].exact, want[i].exact) << want[i].what;
    EXPECT_EQ(rows[i].folded, want[i].folded) << want[i].what;
  }
  EXPECT_EQ(custom_calls, 1);
}

TEST(ParallelComm, ItemRangePartitionsExactly) {
  for (const std::uint64_t n : {0ull, 1ull, 7ull, 4096ull, 65537ull}) {
    for (const int slots : {1, 2, 3, 8}) {
      std::uint64_t covered = 0;
      std::uint64_t prev_end = 0;
      for (int slot = 0; slot < slots; ++slot) {
        const auto [lo, hi] = core::detail::item_range(n, slots, slot);
        EXPECT_EQ(lo, prev_end);  // contiguous and ascending
        EXPECT_LE(hi, n);
        covered += hi - lo;
        prev_end = hi;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(ParallelComm, ExchangeReservesFromPreviousRoundHint) {
  // Round 1 ships a 16 KiB payload; round 2's begin_frames must
  // pre-reserve the (fresh) outbox to at least that size before the
  // channel writes a byte.
  runtime::Barrier barrier(1);
  runtime::BufferExchange ex(1, barrier);
  constexpr std::size_t kPayload = 16 * 1024;
  std::vector<std::byte> blob(kPayload);

  ex.begin_frames(0, 0);
  ex.outbox(0, 0).write_bytes(blob.data(), blob.size());
  ex.end_frames(0, 0);
  ex.exchange(0);
  ex.open_frames(0, 0, "c0");
  ex.inbox(0, 0).skip(kPayload);
  ex.close_frames(0, 0, "c0");

  // The new outbox is the double-buffered matrix's other buffer, never
  // written before — without the hint its capacity would be ~0.
  ex.begin_frames(0, 0);
  EXPECT_GE(ex.outbox(0, 0).capacity(), kPayload);
  ex.end_frames(0, 0);
}

TEST(ParallelComm, MergeFromMaxesPhaseBreakdown) {
  RunStats a, b;
  a.serialize_seconds = 0.5;
  a.exchange_seconds = 0.1;
  a.deliver_seconds = 0.2;
  b.serialize_seconds = 0.3;
  b.exchange_seconds = 0.4;
  b.deliver_seconds = 0.1;
  a.merge_from(b);
  EXPECT_EQ(a.serialize_seconds, 0.5);
  EXPECT_EQ(a.exchange_seconds, 0.4);
  EXPECT_EQ(a.deliver_seconds, 0.2);
}

}  // namespace
