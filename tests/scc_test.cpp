// Tests for the Min-Label SCC implementations (channel basic, channel
// propagation, Pregel+ baseline) against the iterative-Tarjan oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "algorithms/pp_scc.hpp"
#include "algorithms/runner.hpp"
#include "algorithms/scc.hpp"
#include "algorithms/sssp.hpp"
#include "graph/distributed.hpp"
#include "graph/generators.hpp"
#include "ref/reference.hpp"
#include "runtime/checkpoint.hpp"

namespace {

using namespace pregel;
using graph::DistributedGraph;
using graph::Graph;
using graph::VertexId;

class SccSuite
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {
 protected:
  /// The ORIGINAL directed graph (the algorithm consumes the bidirected
  /// encoding; the oracle consumes this).
  Graph make_graph() const {
    const auto seed = std::get<2>(GetParam());
    switch (std::get<0>(GetParam())) {
      case 0:  // random digraph, dense enough for nontrivial SCCs
        return graph::erdos_renyi(600, 1500, seed);
      case 1:  // web-like skewed digraph
        return graph::rmat({.num_vertices = 1 << 9,
                            .num_edges = 1 << 12,
                            .seed = seed});
      case 2: {  // disjoint directed cycles with random chords
        Graph g(800);
        for (VertexId base = 0; base < 800; base += 100) {
          for (VertexId i = 0; i < 100; ++i) {
            g.add_edge(base + i, base + (i + 1) % 100);
          }
        }
        Graph chords = graph::erdos_renyi(800, 120, seed + 1);
        for (VertexId v = 0; v < 800; ++v) {
          for (const auto& e : chords.out(v)) g.add_edge(v, e.dst);
        }
        return g;
      }
      default:  // all-trivial: a chain has no cycles
        return graph::chain(500);
    }
  }
  int workers() const { return std::get<1>(GetParam()); }

  template <typename WorkerT>
  void expect_matches_reference() {
    const Graph g = make_graph();
    const Graph bi = algo::make_bidirected(g);
    const DistributedGraph dg(
        bi, graph::hash_partition(bi.num_vertices(), workers()));
    const auto expect = ref::strongly_connected_components(g);
    std::vector<VertexId> got;
    algo::run_collect<WorkerT>(
        dg, got, [](const algo::SccVertex& v) { return v.value().scc; });
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(got[v], expect[v]) << "vertex " << v;
    }
  }
};

TEST_P(SccSuite, BasicMatchesReference) {
  expect_matches_reference<algo::SccBasic>();
}
TEST_P(SccSuite, PropagationMatchesReference) {
  expect_matches_reference<algo::SccPropagation>();
}
TEST_P(SccSuite, PregelPlusMatchesReference) {
  expect_matches_reference<algo::PPScc>();
}

std::string scc_case_name(
    const ::testing::TestParamInfo<std::tuple<int, int, std::uint64_t>>&
        info) {
  static const char* kinds[] = {"er", "rmat", "cycles", "chain"};
  return std::string(kinds[std::get<0>(info.param)]) + "_w" +
         std::to_string(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Graphs, SccSuite,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1, 2, 4),
                                            ::testing::Values(2u, 23u)),
                         scc_case_name);

// ----------------------------------------------- paper-shape assertions ---

/// One 1,200-vertex directed cycle, bidirected, over 4 ranks: the
/// longest label waves per vertex, so the superstep-heavy SCC shape.
DistributedGraph cycle_1200() {
  Graph g(1200);
  for (VertexId i = 0; i < 1200; ++i) g.add_edge(i, (i + 1) % 1200);
  const Graph bi = algo::make_bidirected(g);
  return DistributedGraph(bi, graph::hash_partition(bi.num_vertices(), 4));
}

template <typename WorkerT>
runtime::RunStats run_scc(const DistributedGraph& dg) {
  std::vector<VertexId> sink;
  return algo::run_collect<WorkerT>(
      dg, sink, [](const algo::SccVertex& v) { return v.value().scc; });
}

TEST(SccShape, PropagationNeedsFarFewerSupersteps) {
  // Table VII's story: the propagation channel collapses each label wave
  // to O(1) supersteps.
  const DistributedGraph dg = cycle_1200();
  const auto basic = run_scc<algo::SccBasic>(dg);
  const auto prop = run_scc<algo::SccPropagation>(dg);
  EXPECT_LT(prop.supersteps * 20, basic.supersteps);
}

TEST(SccShape, LoopPhasesComputeOnlyTheFrontier) {
  // Vertices halt in every compute(); only message receivers and the
  // phases that wake everyone compute. Computing every vertex in every
  // superstep would sum to V x supersteps. On a cycle the forward wave
  // is the worst case — vertex i keeps improving until superstep i of
  // the wave, a triangle of ~V^2/2 computes over ~V supersteps — while
  // the backward wave moves one vertex per superstep, so the total is
  // ~V x supersteps / 4 (728,999 of 2,887,200).
  //
  // The superstep counts and bytes are golden values of the program that
  // computed every vertex in every superstep: halting changes who
  // computes, never what is sent or how many supersteps run.
  const DistributedGraph dg = cycle_1200();
  const auto expect_frontier_sized = [&](const runtime::RunStats& s,
                                         const char* name) {
    const std::uint64_t computed =
        std::accumulate(s.active_per_superstep.begin(),
                        s.active_per_superstep.end(), std::uint64_t{0});
    const std::uint64_t all = dg.num_vertices() *
                              static_cast<std::uint64_t>(s.supersteps);
    EXPECT_LE(computed, all / 3) << name;
    EXPECT_EQ(s.supersteps, 2406) << name;
  };

  const auto basic = run_scc<algo::SccBasic>(dg);
  expect_frontier_sized(basic, "SccBasic");
  EXPECT_EQ(basic.message_bytes, 13819952u);
  const std::map<std::string, std::uint64_t> basic_channels = {
      {"activity", 307968}, {"alive", 307968},     {"cnt_in", 163584},
      {"cnt_out", 163584},  {"labels", 11721968}};
  EXPECT_EQ(basic.bytes_by_channel, basic_channels);

  const auto pp = run_scc<algo::PPScc>(dg);
  expect_frontier_sized(pp, "PPScc");
  EXPECT_EQ(pp.message_bytes, 16509772u);
}

TEST(SccShape, ChannelUsesFewerBytesThanPregelPlus) {
  // Table IV SCC row: per-channel message types halve the byte volume.
  const Graph g = graph::erdos_renyi(2000, 6000, 3);
  const Graph bi = algo::make_bidirected(g);
  const DistributedGraph dg(bi, graph::hash_partition(bi.num_vertices(), 4));
  std::vector<VertexId> sink;
  const auto pp = algo::run_collect<algo::PPScc>(
      dg, sink, [](const algo::SccVertex& v) { return v.value().scc; });
  const auto ch = algo::run_collect<algo::SccBasic>(
      dg, sink, [](const algo::SccVertex& v) { return v.value().scc; });
  EXPECT_LT(ch.message_bytes, pp.message_bytes);
}

// ------------------------------------------------- checkpoint resume ---

VertexId scc_label(const algo::SccVertex& v) { return v.value().scc; }

/// Removes its checkpoint directories when the test ends.
class SccCheckpoint : public ::testing::Test {
 protected:
  std::string scratch_dir(const std::string& name) {
    dirs_.push_back("scc_ckpt_" + name + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dirs_.back());
    return dirs_.back();
  }
  void TearDown() override {
    for (const std::string& dir : dirs_) std::filesystem::remove_all(dir);
  }

  /// Run WorkerT to completion with checkpoints every `every` supersteps,
  /// then resume a fresh team from the newest one: results, superstep
  /// count and every byte counter must equal the uninterrupted run's.
  template <typename WorkerT, typename OutT = VertexId,
            typename Extract = decltype(&scc_label)>
  void expect_resume_replays(const DistributedGraph& dg, int every,
                             Extract extract = &scc_label) {
    const std::string label = "every " + std::to_string(every);
    std::vector<OutT> want;
    const runtime::RunStats full = algo::run_collect<WorkerT>(dg, want, extract);

    runtime::CheckpointConfig cfg;
    cfg.every = every;
    cfg.dir = scratch_dir(std::to_string(dirs_.size()));
    std::vector<OutT> got;
    algo::run_collect<WorkerT>(dg, got, extract,
                               [&](WorkerT& w) { w.set_checkpoint(cfg); });
    ASSERT_EQ(got, want) << label;
    ASSERT_GE(runtime::read_latest_marker(cfg.dir, dg.num_workers()), every)
        << label;

    cfg.every = 0;
    cfg.resume = true;
    const runtime::RunStats resumed = algo::run_collect<WorkerT>(
        dg, got, extract, [&](WorkerT& w) { w.set_checkpoint(cfg); });
    EXPECT_EQ(got, want) << label;
    EXPECT_EQ(resumed.supersteps, full.supersteps) << label;
    EXPECT_EQ(resumed.bytes_by_channel, full.bytes_by_channel) << label;
    EXPECT_EQ(resumed.message_bytes, full.message_bytes) << label;
    EXPECT_EQ(resumed.message_batches, full.message_batches) << label;
    EXPECT_EQ(resumed.frame_bytes, full.frame_bytes) << label;
    EXPECT_EQ(resumed.active_per_superstep, full.active_per_superstep)
        << label;
    for (const runtime::RunStats* stats : {&full, &resumed}) {
      std::uint64_t channels = 0;
      for (const auto& [name, bytes] : stats->bytes_by_channel) {
        channels += bytes;
      }
      EXPECT_EQ(channels + stats->frame_bytes, stats->message_bytes)
          << label;
    }
  }

 private:
  std::vector<std::string> dirs_;
};

/// The 800-vertex cycles + chords graph of SccSuite, over 2 ranks.
DistributedGraph cycles_with_chords() {
  Graph g(800);
  for (VertexId base = 0; base < 800; base += 100) {
    for (VertexId i = 0; i < 100; ++i) {
      g.add_edge(base + i, base + (i + 1) % 100);
    }
  }
  const Graph chords = graph::erdos_renyi(800, 120, 3);
  for (VertexId v = 0; v < 800; ++v) {
    for (const auto& e : chords.out(v)) g.add_edge(v, e.dst);
  }
  const Graph bi = algo::make_bidirected(g);
  return DistributedGraph(bi, graph::hash_partition(bi.num_vertices(), 2));
}

TEST_F(SccCheckpoint, ResumeReplaysTheUninterruptedRun) {
  // The phase machine is program state the checkpoint must carry: a
  // resume that restarted it would run other vertices in other phases.
  const DistributedGraph dg = cycles_with_chords();
  for (const int every : {5, 7, 10, 13, 20}) {
    expect_resume_replays<algo::SccBasic>(dg, every);
  }
  for (const int every : {2, 3}) {
    expect_resume_replays<algo::SccPropagation>(dg, every);
  }
  // A Propagation with f carries its edge weights through the checkpoint:
  // the resumed superstep 2 reads the distances superstep 1 converged.
  const Graph road = graph::grid_road(20, 20, 60, 5);
  expect_resume_replays<algo::SsspPropagation, std::uint64_t>(
      DistributedGraph(road, graph::hash_partition(road.num_vertices(), 2)),
      1, [](const algo::SsspVertex& v) { return v.value().dist; });
}

}  // namespace
