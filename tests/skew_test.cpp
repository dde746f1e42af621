// Tests for skew-aware execution (DESIGN.md section 11): results that do
// not depend on the partitioner, the work-stealing compute schedule (which
// must be invisible in every observable — results bitwise, floats
// included, traffic byte-identical), and the imbalance stats plumbing.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/runner.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "runtime/buffer.hpp"
#include "runtime/compute_pool.hpp"
#include "runtime/stats.hpp"
#include "runtime/team.hpp"
#include "tcp_mesh.hpp"

namespace {

using namespace pregel;
using namespace pregel::core;
using pregel::runtime::RunStats;
using pregel::runtime::WorkerTeam;

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// The unpermuted power-law graph: hubs stay clustered at low ids, so a
/// contiguous range partition is maximally skewed — the regime where
/// stealing actually moves chunks.
graph::CsrGraph skewed_csr() {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 12;
  opts.num_edges = 1u << 15;
  opts.seed = 42;
  opts.permute_ids = false;
  return graph::rmat(opts).finalize();
}

// ----------------------------------------- partition-invariant results ----

template <typename WorkerT, typename OutT, typename Extract>
std::vector<OutT> collect(const graph::DistributedGraph& dg, Extract extract,
                          const std::function<void(WorkerT&)>& cfg = nullptr) {
  std::vector<OutT> out;
  algo::run_collect<WorkerT>(dg, out, extract, cfg);
  return out;
}

TEST(PartitionInvariance, ExactAlgorithmsAgreeAcrossPartitioners) {
  // WCC labels and SSSP distances are unique fixpoints: every
  // partitioner must produce the values of a one-rank run.
  const graph::CsrGraph sym = graph::rmat({.num_vertices = 1u << 12,
                                           .num_edges = 1u << 15,
                                           .seed = 42,
                                           .permute_ids = false})
                                  .symmetrized()
                                  .finalize();
  const auto wcc = [](const algo::WccVertex& v) { return v.value().label; };
  const auto wcc_ref = collect<algo::WccBasic, graph::VertexId>(
      graph::DistributedGraph(sym,
                              graph::hash_partition(sym.num_vertices(), 1)),
      wcc);
  for (const auto kind :
       {graph::PartitionKind::kRange, graph::PartitionKind::kHash}) {
    const auto got = collect<algo::WccBasic, graph::VertexId>(
        graph::DistributedGraph(sym, graph::make_partition(sym, 4, kind)),
        wcc);
    EXPECT_EQ(got, wcc_ref) << static_cast<int>(kind);
  }

  const graph::CsrGraph road = graph::grid_road(48, 48, 600, 7).finalize();
  const auto dist = [](const algo::SsspVertex& v) { return v.value().dist; };
  const auto src = [](algo::Sssp& w) { w.source = 0; };
  const auto sssp_ref = collect<algo::Sssp, std::uint64_t>(
      graph::DistributedGraph(road,
                              graph::hash_partition(road.num_vertices(), 1)),
      dist, src);
  for (const auto kind :
       {graph::PartitionKind::kRange, graph::PartitionKind::kHash}) {
    const auto got = collect<algo::Sssp, std::uint64_t>(
        graph::DistributedGraph(road, graph::make_partition(road, 4, kind)),
        dist, src);
    EXPECT_EQ(got, sssp_ref) << static_cast<int>(kind);
  }
}

TEST(PartitionInvariance, PageRankAgreesAcrossPartitionersWithinTolerance) {
  // Float folds regroup across partitioners (ownership changes the
  // combine order), so PageRank compares within tolerance, not bitwise.
  const graph::CsrGraph g = skewed_csr();
  const auto rank = [](const algo::PRVertex& v) { return v.value().rank; };
  const auto iters = [](algo::PageRankCombined& w) { w.iterations = 10; };
  const auto ref = collect<algo::PageRankCombined, double>(
      graph::DistributedGraph(g, graph::range_partition(g.num_vertices(), 4)),
      rank, iters);
  const auto got = collect<algo::PageRankCombined, double>(
      graph::DistributedGraph(g, graph::hash_partition(g.num_vertices(), 4)),
      rank, iters);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-9) << i;
  }
}

// ------------------------------------------------ work-stealing parity ----

/// One compute-schedule configuration: thread count + pinned/steal.
struct Sched {
  int threads;
  bool steal;
};

constexpr Sched kScheds[] = {
    {1, false},  // exact sequential baseline
    {3, false},  // pinned parallel (chunks == slots)
    {3, true},   // stealing, same thread count
    {2, true},   // stealing, different thread count
    {1, true},   // steal flag on the sequential path is a no-op
};

std::string sched_name(const Sched& s) {
  return "threads=" + std::to_string(s.threads) +
         (s.steal ? " steal" : " pinned");
}

/// Pin both the schedule and the comm knobs so the matrix is
/// deterministic regardless of the PGCH_* variables the CI legs set.
template <typename WorkerT>
std::function<void(WorkerT&)> pin_sched(
    const Sched& s, std::function<void(WorkerT&)> extra = {}) {
  return [s, extra](WorkerT& w) {
    w.set_compute_threads(s.threads);
    w.set_steal(s.steal);
    w.set_comm_threads(1);
    if (extra) extra(w);
  };
}

void expect_identical_traffic(const RunStats& got, const RunStats& want,
                              const std::string& label) {
  EXPECT_EQ(got.supersteps, want.supersteps) << label;
  EXPECT_EQ(got.comm_rounds, want.comm_rounds) << label;
  EXPECT_EQ(got.message_bytes, want.message_bytes) << label;
  EXPECT_EQ(got.bytes_by_channel, want.bytes_by_channel) << label;
  EXPECT_EQ(got.bytes_per_superstep, want.bytes_per_superstep) << label;
  EXPECT_EQ(got.active_per_superstep, want.active_per_superstep) << label;
}

template <typename WorkerT, typename OutT, typename Extract>
void run_steal_matrix(const graph::DistributedGraph& dg, Extract extract,
                      std::function<void(WorkerT&)> extra = {}) {
  std::vector<OutT> baseline;
  const RunStats want = algo::run_collect<WorkerT>(
      dg, baseline, extract, pin_sched<WorkerT>(kScheds[0], extra));
  for (std::size_t i = 1; i < std::size(kScheds); ++i) {
    std::vector<OutT> got;
    const RunStats stats = algo::run_collect<WorkerT>(
        dg, got, extract, pin_sched<WorkerT>(kScheds[i], extra));
    EXPECT_EQ(got, baseline) << sched_name(kScheds[i]);
    expect_identical_traffic(stats, want, sched_name(kScheds[i]));
  }
}

/// The hub-clustered case: contiguous ranges over the unpermuted graph
/// leave the hub chunks on the low ranks, where stealing moves them.
graph::DistributedGraph skewed_dg(int workers) {
  const graph::CsrGraph g = skewed_csr();
  return graph::DistributedGraph(
      g, graph::range_partition(g.num_vertices(), workers));
}

TEST(WorkStealing, PageRankBitwiseAcrossSchedules) {
  // Double-sum CombinedMessage + Aggregator: the chunk-keyed staging must
  // replay the sequential fold exactly, floats included.
  run_steal_matrix<algo::PageRankCombined, std::uint64_t>(
      skewed_dg(4), [](const algo::PRVertex& v) { return bits(v.value().rank); },
      [](algo::PageRankCombined& w) { w.iterations = 6; });
}

TEST(WorkStealing, WccExactCombinerAcrossSchedules) {
  const graph::CsrGraph sym = graph::rmat({.num_vertices = 1u << 12,
                                           .num_edges = 1u << 15,
                                           .seed = 42,
                                           .permute_ids = false})
                                  .symmetrized()
                                  .finalize();
  run_steal_matrix<algo::WccBasic, graph::VertexId>(
      graph::DistributedGraph(sym,
                              graph::range_partition(sym.num_vertices(), 4)),
      [](const algo::WccVertex& v) { return v.value().label; });
}

TEST(WorkStealing, SsspSparseFrontierAcrossSchedules) {
  // Sparse supersteps exercise the frontier-weighted chunk boundaries
  // under stealing (the dense path uses degree_prefix_).
  run_steal_matrix<algo::Sssp, std::uint64_t>(
      graph::DistributedGraph(graph::grid_road(48, 48, 600, 7),
                              graph::hash_partition(48 * 48, 4)),
      [](const algo::SsspVertex& v) { return v.value().dist; },
      [](algo::Sssp& w) { w.source = 0; });
}

TEST(WorkStealing, TcpParityStealVsPinned) {
  using pregel::testing::make_mesh;
  const graph::DistributedGraph dg = skewed_dg(2);
  const auto extract = [](const algo::PRVertex& v) {
    return bits(v.value().rank);
  };
  const auto tune = [](algo::PageRankCombined& w) { w.iterations = 6; };

  const auto run_tcp = [&](const Sched& s, std::vector<std::uint64_t>& out) {
    out.assign(dg.num_vertices(), 0);
    auto mesh = make_mesh(2);
    std::vector<RunStats> merged(2);
    WorkerTeam::run(2, [&](int rank) {
      merged[static_cast<std::size_t>(rank)] =
          core::launch_distributed<algo::PageRankCombined>(
              dg, *mesh[static_cast<std::size_t>(rank)], rank,
              pin_sched<algo::PageRankCombined>(s, tune),
              [&](algo::PageRankCombined& w, int /*r*/) {
                w.for_each_vertex([&](const auto& v) {
                  out[v.id()] = bits(v.value().rank);
                });
              });
    });
    return merged[0];
  };

  std::vector<std::uint64_t> expect;
  const RunStats inproc = algo::run_collect<algo::PageRankCombined>(
      dg, expect, extract,
      pin_sched<algo::PageRankCombined>(Sched{1, false}, tune));

  std::vector<std::uint64_t> pinned, steal;
  const RunStats tcp_pinned = run_tcp(Sched{3, false}, pinned);
  const RunStats tcp_steal = run_tcp(Sched{3, true}, steal);

  EXPECT_EQ(pinned, expect);
  EXPECT_EQ(steal, expect);
  expect_identical_traffic(tcp_pinned, inproc, "tcp pinned vs inproc seq");
  expect_identical_traffic(tcp_steal, tcp_pinned, "tcp steal vs tcp pinned");
}

TEST(WorkStealing, ChunkSchedulerDrainsEveryChunkOnce) {
  // Single-threaded drain through each entry slot: every chunk claimed
  // exactly once, in chunk order per victim queue.
  for (const int slots : {1, 2, 3}) {
    for (const int chunks : {1, 3, 12, 13}) {
      runtime::ChunkScheduler sched(slots, chunks);
      std::vector<int> claimed(static_cast<std::size_t>(chunks), 0);
      for (int s = 0; s < slots; ++s) {
        for (int c; (c = sched.next(s)) >= 0;) {
          ASSERT_GE(c, 0);
          ASSERT_LT(c, chunks);
          ++claimed[static_cast<std::size_t>(c)];
        }
      }
      for (const int count : claimed) EXPECT_EQ(count, 1);
    }
  }
}

// ------------------------------------------------------ imbalance stats --

TEST(ImbalanceStats, MaxOverMean) {
  EXPECT_EQ(RunStats::imbalance({}), 0.0);
  EXPECT_EQ(RunStats::imbalance({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(RunStats::imbalance({1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(RunStats::imbalance({2.0, 1.0, 1.0}), 1.5);
  EXPECT_DOUBLE_EQ(RunStats::imbalance({4.0, 0.0, 0.0, 0.0}), 4.0);
}

TEST(ImbalanceStats, MergeSlotMaxRankConcat) {
  RunStats a, b;
  a.compute_slot_seconds = {1.0, 3.0};
  b.compute_slot_seconds = {2.0, 1.0, 5.0};
  a.rank_compute_seconds = {4.0};
  b.rank_compute_seconds = {1.0};
  a.merge_from(b);
  // Slots: element-wise max (the barrier waits on the slowest rank's
  // slot). Ranks: concatenation in merge order (= ascending rank).
  EXPECT_EQ(a.compute_slot_seconds, (std::vector<double>{2.0, 3.0, 5.0}));
  EXPECT_EQ(a.rank_compute_seconds, (std::vector<double>{4.0, 1.0}));
  EXPECT_DOUBLE_EQ(a.rank_imbalance(), 4.0 / 2.5);
}

TEST(ImbalanceStats, WireRoundTrip) {
  RunStats s;
  s.seconds = 1.5;
  s.compute_slot_seconds = {0.25, 0.5, 0.125};
  s.rank_compute_seconds = {1.0, 2.0};
  runtime::Buffer buf;
  s.serialize(buf);
  const RunStats back = RunStats::deserialize(buf);
  EXPECT_EQ(back.compute_slot_seconds, s.compute_slot_seconds);
  EXPECT_EQ(back.rank_compute_seconds, s.rank_compute_seconds);
}

TEST(ImbalanceStats, RunPopulatesSlotAndRankVectors) {
  const graph::DistributedGraph dg = skewed_dg(2);
  const RunStats stats = algo::run_only<algo::PageRankCombined>(
      dg, [](algo::PageRankCombined& w) {
        w.iterations = 4;
        w.set_compute_threads(3);
        w.set_steal(true);
        w.set_comm_threads(1);
      });
  // In-process: one rank_compute entry per worker, merged ascending.
  EXPECT_EQ(stats.rank_compute_seconds.size(), 2u);
  EXPECT_EQ(stats.compute_slot_seconds.size(), 3u);
  EXPECT_GE(stats.rank_imbalance(), 1.0);
  EXPECT_GE(stats.slot_imbalance(), 1.0);
}

}  // namespace
