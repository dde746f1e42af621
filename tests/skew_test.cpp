// Tests for skew-aware execution (DESIGN.md section 11): the
// degree-balanced partitioner, the work-stealing compute schedule (which
// must be invisible in every observable — results bitwise, floats
// included, traffic byte-identical), the MirrorScatter degree threshold,
// and the imbalance stats plumbing.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/runner.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "core/pregel_channel.hpp"
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
/// contiguous range partition is maximally skewed — the regime the
/// degree partitioner exists for.
graph::CsrGraph skewed_csr() {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 12;
  opts.num_edges = 1u << 15;
  opts.seed = 42;
  opts.permute_ids = false;
  return graph::rmat(opts).finalize();
}

/// Per-rank sums of the partitioner's weight model, w(v) = out + in + 1.
std::vector<std::uint64_t> rank_weights(const graph::CsrGraph& g,
                                        const graph::Partition& p) {
  const graph::VertexId n = g.num_vertices();
  std::vector<std::uint64_t> indeg(n, 0);
  for (graph::VertexId u = 0; u < n; ++u) {
    for (const graph::VertexId v : g.neighbors(u)) ++indeg[v];
  }
  std::vector<std::uint64_t> w(static_cast<std::size_t>(p.num_workers), 0);
  for (graph::VertexId v = 0; v < n; ++v) {
    w[static_cast<std::size_t>(p.owner[v])] += g.out_degree(v) + indeg[v] + 1;
  }
  return w;
}

// ------------------------------------------------- degree partitioner ----

TEST(DegreePartition, BalanceContiguityCoverage) {
  const graph::CsrGraph g = skewed_csr();
  const graph::VertexId n = g.num_vertices();
  for (const int workers : {1, 2, 3, 7}) {
    const graph::Partition p = graph::degree_partition(g, workers);
    ASSERT_EQ(p.num_workers, workers);
    ASSERT_EQ(p.owner.size(), n);
    // Contiguous ascending ranges: owner is non-decreasing and in range.
    for (graph::VertexId v = 0; v < n; ++v) {
      ASSERT_GE(p.owner[v], 0);
      ASSERT_LT(p.owner[v], workers);
      if (v > 0) {
        ASSERT_LE(p.owner[v - 1], p.owner[v]);
      }
    }
    // Coverage: members partition the id space.
    std::uint64_t total_members = 0;
    for (const auto& m : p.members) total_members += m.size();
    EXPECT_EQ(total_members, n);
    // Balance: every rank's weight is within one vertex of the ideal
    // share (the boundary search can overshoot by at most the heaviest
    // single vertex).
    const std::vector<std::uint64_t> w = rank_weights(g, p);
    const std::uint64_t total =
        std::accumulate(w.begin(), w.end(), std::uint64_t{0});
    std::uint64_t wmax = 0;
    {
      std::vector<std::uint64_t> indeg(n, 0);
      for (graph::VertexId u = 0; u < n; ++u) {
        for (const graph::VertexId v : g.neighbors(u)) ++indeg[v];
      }
      for (graph::VertexId v = 0; v < n; ++v) {
        wmax = std::max<std::uint64_t>(wmax, g.out_degree(v) + indeg[v] + 1);
      }
    }
    const std::uint64_t bound =
        total / static_cast<std::uint64_t>(workers) + wmax + 1;
    for (const std::uint64_t rw : w) EXPECT_LE(rw, bound) << workers;
  }
}

TEST(DegreePartition, SingleWorkerAndMoreWorkersThanVertices) {
  const graph::CsrGraph g = graph::chain(5).finalize();
  const graph::Partition one = graph::degree_partition(g, 1);
  for (graph::VertexId v = 0; v < 5; ++v) EXPECT_EQ(one.owner[v], 0);
  // More workers than vertices: every vertex still owned, trailing ranks
  // may be empty, members stay consistent.
  const graph::Partition many = graph::degree_partition(g, 9);
  std::uint64_t covered = 0;
  for (const auto& m : many.members) covered += m.size();
  EXPECT_EQ(covered, 5u);
  EXPECT_EQ(many.num_workers, 9);
}

TEST(DegreePartition, BeatsRangeOnSkewedGraph) {
  // The direct statement of the tentpole: on the hub-clustered graph the
  // degree partitioner's worst rank carries less weight than range's.
  const graph::CsrGraph g = skewed_csr();
  const auto max_w = [&](const graph::Partition& p) {
    const std::vector<std::uint64_t> w = rank_weights(g, p);
    return *std::max_element(w.begin(), w.end());
  };
  const std::uint64_t range_peak =
      max_w(graph::range_partition(g.num_vertices(), 4));
  const std::uint64_t degree_peak = max_w(graph::degree_partition(g, 4));
  EXPECT_LT(degree_peak, range_peak);
}

TEST(DegreePartition, KindParsingAndEnvSelection) {
  EXPECT_EQ(graph::parse_partition_kind("range"),
            graph::PartitionKind::kRange);
  EXPECT_EQ(graph::parse_partition_kind("degree"),
            graph::PartitionKind::kDegree);
  EXPECT_EQ(graph::parse_partition_kind("hash"),
            graph::PartitionKind::kHash);
  EXPECT_THROW(graph::parse_partition_kind("voronoi"), std::invalid_argument);

  // Save/restore PGCH_PARTITION: the CI skew leg sets it globally.
  const char* old = std::getenv("PGCH_PARTITION");
  const std::optional<std::string> saved =
      old != nullptr ? std::optional<std::string>(old) : std::nullopt;
  setenv("PGCH_PARTITION", "degree", 1);
  EXPECT_EQ(graph::partition_kind_from_env(graph::PartitionKind::kHash),
            graph::PartitionKind::kDegree);
  unsetenv("PGCH_PARTITION");
  EXPECT_EQ(graph::partition_kind_from_env(graph::PartitionKind::kHash),
            graph::PartitionKind::kHash);
  if (saved) setenv("PGCH_PARTITION", saved->c_str(), 1);

  const graph::CsrGraph g = skewed_csr();
  const graph::Partition p =
      graph::make_partition(g, 3, graph::PartitionKind::kDegree);
  const graph::Partition q = graph::degree_partition(g, 3);
  EXPECT_EQ(p.owner, q.owner);
}

// ----------------------------------------- partition-invariant results ----

template <typename WorkerT, typename OutT, typename Extract>
std::vector<OutT> collect(const graph::DistributedGraph& dg, Extract extract,
                          const std::function<void(WorkerT&)>& cfg = nullptr) {
  std::vector<OutT> out;
  algo::run_collect<WorkerT>(dg, out, extract, cfg);
  return out;
}

TEST(DegreePartition, ExactAlgorithmsAgreeAcrossPartitioners) {
  // WCC labels and SSSP distances are unique fixpoints: every
  // partitioner must produce identical values.
  const graph::CsrGraph sym = graph::rmat({.num_vertices = 1u << 12,
                                           .num_edges = 1u << 15,
                                           .seed = 42,
                                           .permute_ids = false})
                                  .symmetrized()
                                  .finalize();
  const auto wcc = [](const algo::WccVertex& v) { return v.value().label; };
  const auto wcc_ref = collect<algo::WccBasic, graph::VertexId>(
      graph::DistributedGraph(sym, graph::hash_partition(sym.num_vertices(), 4)),
      wcc);
  for (const auto kind :
       {graph::PartitionKind::kRange, graph::PartitionKind::kDegree}) {
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
                              graph::hash_partition(road.num_vertices(), 4)),
      dist, src);
  for (const auto kind :
       {graph::PartitionKind::kRange, graph::PartitionKind::kDegree}) {
    const auto got = collect<algo::Sssp, std::uint64_t>(
        graph::DistributedGraph(road, graph::make_partition(road, 4, kind)),
        dist, src);
    EXPECT_EQ(got, sssp_ref) << static_cast<int>(kind);
  }
}

TEST(DegreePartition, PageRankAgreesAcrossPartitionersWithinTolerance) {
  // Float folds regroup across partitioners (ownership changes the
  // combine order), so PageRank compares within tolerance, not bitwise.
  const graph::CsrGraph g = skewed_csr();
  const auto rank = [](const algo::PRVertex& v) { return v.value().rank; };
  const auto iters = [](algo::PageRankCombined& w) { w.iterations = 10; };
  const auto ref = collect<algo::PageRankCombined, double>(
      graph::DistributedGraph(g, graph::range_partition(g.num_vertices(), 4)),
      rank, iters);
  const auto got = collect<algo::PageRankCombined, double>(
      graph::DistributedGraph(g, graph::degree_partition(g, 4)), rank, iters);
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

graph::DistributedGraph skewed_dg(int workers) {
  const graph::CsrGraph g = skewed_csr();
  return graph::DistributedGraph(g, graph::degree_partition(g, workers));
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
      graph::DistributedGraph(sym, graph::degree_partition(sym, 4)),
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
  const graph::CsrGraph g = skewed_csr();
  const graph::DistributedGraph dg(g, graph::degree_partition(g, 2));
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

// ------------------------------------------- mirror degree threshold ----

/// Exact min-label propagation over MirrorScatter: integer values, so
/// every threshold must produce identical results — the direct section's
/// different fold position is invisible to an exact combiner.
struct MinValue {
  graph::VertexId label = 0;
};
using MinVertex = Vertex<MinValue>;

class MirrorMinWorker : public Worker<MinVertex> {
 public:
  int iterations = 8;

  void set_threshold(std::uint32_t t) { msg_.set_mirror_degree(t); }

  void compute(MinVertex& v) override {
    if (step_num() == 1) {
      v.value().label = v.id();
      for (const auto& e : v.edges()) msg_.add_edge(e.dst);
    } else {
      v.value().label = std::min(v.value().label, msg_.get_message());
    }
    if (step_num() <= iterations) {
      msg_.set_message(v.value().label);
    } else {
      v.vote_to_halt();
    }
  }

 private:
  MirrorScatter<MinVertex, graph::VertexId> msg_{
      this, make_combiner(c_min, graph::kInvalidVertex), "min"};
};

TEST(MirrorDegree, ExactCombinerIdenticalAcrossThresholds) {
  const graph::CsrGraph g = skewed_csr();
  const graph::DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), 4));
  const auto extract = [](const MinVertex& v) { return v.value().label; };
  const auto ref = collect<MirrorMinWorker, graph::VertexId>(
      dg, extract, [](MirrorMinWorker& w) { w.set_threshold(0); });
  // Threshold 4 mixes mirrored and direct senders; a huge threshold
  // makes every sender direct (no mirrors at all).
  for (const std::uint32_t threshold : {4u, 1u << 30}) {
    const auto got = collect<MirrorMinWorker, graph::VertexId>(
        dg, extract,
        [threshold](MirrorMinWorker& w) { w.set_threshold(threshold); });
    EXPECT_EQ(got, ref) << threshold;
  }
}

TEST(MirrorDegree, ThresholdActuallyChangesTheWireFormat) {
  // Guard against the threshold silently not taking effect: the mixed
  // sections ship (lidx, value) pairs for the demoted senders, so the
  // wire volume must move when the threshold does. (The knob trades
  // bytes for mirror-table state, not fewer bytes — a direct pair costs
  // more than a mirrored value, but only high-degree senders keep a
  // mirror slot on every peer.)
  const graph::CsrGraph g = skewed_csr();
  const graph::DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), 4));
  const auto run_with = [&](std::uint32_t threshold) {
    return algo::run_only<MirrorMinWorker>(
        dg, [threshold](MirrorMinWorker& w) { w.set_threshold(threshold); });
  };
  const RunStats all_mirrored = run_with(0);
  const RunStats thresholded = run_with(8);
  EXPECT_NE(thresholded.message_bytes, all_mirrored.message_bytes);
}

TEST(MirrorDegree, PageRankMirrorWithinToleranceAcrossThresholds) {
  // Float sums regroup when senders move between the mirrored and the
  // direct section, so PageRank compares within tolerance.
  const graph::CsrGraph g = skewed_csr();
  const graph::DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), 4));
  const auto rank = [](const algo::PRVertex& v) { return v.value().rank; };
  const auto ref = collect<algo::PageRankMirror, double>(
      dg, rank, [](algo::PageRankMirror& w) { w.iterations = 10; });
  // PageRankMirror reads its threshold from PGCH_MIRROR_DEGREE.
  const char* old = std::getenv("PGCH_MIRROR_DEGREE");
  const std::optional<std::string> saved =
      old != nullptr ? std::optional<std::string>(old) : std::nullopt;
  setenv("PGCH_MIRROR_DEGREE", "8", 1);
  const auto got = collect<algo::PageRankMirror, double>(
      dg, rank, [](algo::PageRankMirror& w) { w.iterations = 10; });
  if (saved) {
    setenv("PGCH_MIRROR_DEGREE", saved->c_str(), 1);
  } else {
    unsetenv("PGCH_MIRROR_DEGREE");
  }
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-9) << i;
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
