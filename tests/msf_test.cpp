// Tests for the Boruvka MSF implementations (channel engine + Pregel+
// baseline) against the Kruskal oracle.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/msf.hpp"
#include "algorithms/pp_msf.hpp"
#include "algorithms/runner.hpp"
#include "graph/distributed.hpp"
#include "graph/generators.hpp"
#include "ref/reference.hpp"

namespace {

using namespace pregel;
using graph::DistributedGraph;
using graph::Graph;
using graph::VertexId;

class MsfSuite
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {
 protected:
  Graph make_graph() const {
    const auto seed = std::get<2>(GetParam());
    switch (std::get<0>(GetParam())) {
      case 0:  // road-like weighted mesh
        return graph::grid_road(20, 25, 40, seed);
      case 1: {  // weighted skewed graph (RMAT24 stand-in)
        Graph g = graph::rmat({.num_vertices = 1 << 9,
                               .num_edges = 1 << 12,
                               .seed = seed,
                               .weighted = true,
                               .max_weight = 500});
        return g.symmetrized();
      }
      case 2: {  // forest input: two disconnected meshes
        Graph g(800);
        const Graph a = graph::grid_road(20, 20, 0, seed);
        for (VertexId v = 0; v < 400; ++v) {
          for (const auto& e : a.out(v)) {
            if (v < e.dst) {
              g.add_undirected_edge(v, e.dst, e.weight);
              g.add_undirected_edge(400 + v, 400 + e.dst, e.weight + 3);
            }
          }
        }
        return g;
      }
      default: {  // uniform weights: heavy tie-breaking stress
        Graph g = graph::random_undirected(600, 4.0, seed);
        return g;
      }
    }
  }
  int workers() const { return std::get<1>(GetParam()); }

  template <typename WorkerT>
  void expect_matches_kruskal() {
    const Graph g = make_graph();
    const DistributedGraph dg(
        g, graph::hash_partition(g.num_vertices(), workers()));
    const std::uint64_t expect = ref::msf_weight(g);
    std::vector<std::uint64_t> weights;
    algo::run_collect<WorkerT>(
        dg, weights,
        [](const algo::MsfVertex& v) { return v.value().msf_weight; });
    const std::uint64_t got =
        std::accumulate(weights.begin(), weights.end(), std::uint64_t{0});
    EXPECT_EQ(got, expect);
  }
};

TEST_P(MsfSuite, ChannelMatchesKruskal) {
  expect_matches_kruskal<algo::MsfBoruvka>();
}
TEST_P(MsfSuite, PregelPlusMatchesKruskal) {
  expect_matches_kruskal<algo::PPMsf>();
}

TEST_P(MsfSuite, ComponentsMatchConnectedComponents) {
  // After Boruvka the comp labels must induce exactly the connected
  // components of the input graph.
  const Graph g = make_graph();
  const DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), workers()));
  std::vector<VertexId> comp;
  algo::run_collect<algo::MsfBoruvka>(
      dg, comp, [](const algo::MsfVertex& v) { return v.value().comp; });
  const auto expect = ref::connected_components(g);
  // comp ids are roots, not necessarily min ids: compare partitions.
  std::unordered_map<VertexId, VertexId> to_expect;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto [it, inserted] = to_expect.try_emplace(comp[v], expect[v]);
    EXPECT_EQ(it->second, expect[v]) << "component split at vertex " << v;
  }
  EXPECT_EQ(to_expect.size(), ref::count_distinct(expect));
}

std::string msf_case_name(
    const ::testing::TestParamInfo<std::tuple<int, int, std::uint64_t>>&
        info) {
  static const char* kinds[] = {"road", "rmatw", "forest", "ties"};
  return std::string(kinds[std::get<0>(info.param)]) + "_w" +
         std::to_string(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Graphs, MsfSuite,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1, 2, 4),
                                            ::testing::Values(4u, 19u)),
                         msf_case_name);

// ----------------------------------------------- paper-shape assertions ---

TEST(MsfShape, ChannelUsesFewerBytesThanPregelPlus) {
  // Table IV MSF rows: per-channel message types (int-sized asks vs
  // 4-tuple-sized everything) cut the byte volume roughly in half.
  Graph g = graph::grid_road(50, 50, 200, 7);
  const DistributedGraph dg(g, graph::hash_partition(g.num_vertices(), 4));
  const auto pp = algo::run_only<algo::PPMsf>(dg);
  const auto ch = algo::run_only<algo::MsfBoruvka>(dg);
  EXPECT_LT(ch.message_bytes, pp.message_bytes);
  EXPECT_EQ(ch.supersteps, pp.supersteps);  // same schedule, cheaper wires
}

// ---------------------------------------------------- checkpointing ----

/// MsfBoruvka counting the supersteps it starts, across ranks.
class CountingMsf : public algo::MsfBoruvka {
 public:
  std::atomic<int>* started = nullptr;

  void begin_superstep() override {
    started->fetch_add(1);
    algo::MsfBoruvka::begin_superstep();
  }
};

TEST(MsfCheckpoint, RefusedBeforeTheFirstSuperstep) {
  // MsfValue holds a std::vector, so no checkpoint of it can be written:
  // the run must refuse in prepare(), before any superstep's work, not
  // at the first checkpoint.
  const Graph g = graph::grid_road(16, 16, 0, 4);
  const DistributedGraph dg(g, graph::hash_partition(g.num_vertices(), 2));
  runtime::CheckpointConfig cfg;
  cfg.every = 5;
  cfg.dir = "msf_checkpoint_" + std::to_string(::getpid());
  std::filesystem::remove_all(cfg.dir);
  std::atomic<int> started{0};
  try {
    algo::run_only<CountingMsf>(dg, [&](CountingMsf& w) {
      w.set_checkpoint(cfg);
      w.started = &started;
    });
    ADD_FAILURE() << "a checkpointing MSF run was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("trivially serializable"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(started.load(), 0);
  EXPECT_TRUE(!std::filesystem::exists(cfg.dir) ||
              std::filesystem::is_empty(cfg.dir))
      << "checkpoint files were written to " << cfg.dir;
  std::filesystem::remove_all(cfg.dir);
}

}  // namespace
