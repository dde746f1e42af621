// Integration + property tests: every channel-engine algorithm is checked
// against the sequential oracle over a sweep of graph families, sizes,
// seeds and worker counts (parameterized gtest).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/pointer_jumping.hpp"
#include "algorithms/runner.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "graph/distributed.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "ref/reference.hpp"

namespace {

using namespace pregel;
using graph::DistributedGraph;
using graph::Graph;
using graph::VertexId;

// ------------------------------------------------------------- PageRank ---

struct PrCase {
  std::string name;
  Graph graph;
  int workers;
};

class PageRankSuite : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  // (graph_kind, workers)
  Graph make_graph() const {
    switch (std::get<0>(GetParam())) {
      case 0:
        return graph::rmat({.num_vertices = 1 << 10,
                            .num_edges = 1 << 13,
                            .seed = 11});
      case 1:
        return graph::erdos_renyi(700, 4000, 3);
      case 2: {
        // graph with dead ends: a DAG-ish random graph
        Graph g(400);
        for (VertexId v = 0; v < 399; v += 2) g.add_edge(v, v + 1);
        return g;
      }
      default:
        return graph::chain(300);
    }
  }

  int workers() const { return std::get<1>(GetParam()); }
};

TEST_P(PageRankSuite, CombinedMatchesReference) {
  const Graph g = make_graph();
  const DistributedGraph dg(g,
                            graph::hash_partition(g.num_vertices(), workers()));
  const auto expect = ref::pagerank(g, 30);
  std::vector<double> got;
  algo::run_collect<algo::PageRankCombined>(
      dg, got, [](const algo::PRVertex& v) { return v.value().rank; });
  ASSERT_EQ(got.size(), expect.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(got[v], expect[v], 1e-10) << "vertex " << v;
  }
}

TEST_P(PageRankSuite, ScatterMatchesReference) {
  const Graph g = make_graph();
  const DistributedGraph dg(g,
                            graph::hash_partition(g.num_vertices(), workers()));
  const auto expect = ref::pagerank(g, 30);
  std::vector<double> got;
  algo::run_collect<algo::PageRankScatter>(
      dg, got, [](const algo::PRVertex& v) { return v.value().rank; });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(got[v], expect[v], 1e-10) << "vertex " << v;
  }
}

TEST_P(PageRankSuite, ScatterAndCombinedAgreeBitwiseClose) {
  const Graph g = make_graph();
  const DistributedGraph dg(g,
                            graph::hash_partition(g.num_vertices(), workers()));
  std::vector<double> a, b;
  algo::run_collect<algo::PageRankCombined>(
      dg, a, [](const algo::PRVertex& v) { return v.value().rank; });
  algo::run_collect<algo::PageRankScatter>(
      dg, b, [](const algo::PRVertex& v) { return v.value().rank; });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(a[v], b[v], 1e-12);
  }
}

std::string pr_case_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kinds[] = {"rmat", "er", "deadends", "chain"};
  return std::string(kinds[std::get<0>(info.param)]) + "_w" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Graphs, PageRankSuite,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1, 2, 4)),
                         pr_case_name);

// ----------------------------------------------------------------- SSSP ---

class SsspSuite : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  Graph make_graph() const {
    switch (std::get<0>(GetParam())) {
      case 0:
        return graph::grid_road(25, 25, 60, 17);
      case 1:
        return graph::rmat({.num_vertices = 1 << 10,
                            .num_edges = 1 << 13,
                            .seed = 23,
                            .weighted = true,
                            .max_weight = 40});
      default: {
        Graph g = graph::chain(400);
        return g.symmetrized();
      }
    }
  }
  int workers() const { return std::get<1>(GetParam()); }
};

TEST_P(SsspSuite, MatchesDijkstra) {
  const Graph g = make_graph();
  const DistributedGraph dg(g,
                            graph::hash_partition(g.num_vertices(), workers()));
  const auto expect = ref::sssp(g, 0);
  std::vector<std::uint64_t> got;
  algo::run_collect<algo::Sssp>(
      dg, got, [](const algo::SsspVertex& v) { return v.value().dist; },
      [](algo::Sssp& w) { w.source = 0; });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(got[v], expect[v]) << "vertex " << v;
  }
}

TEST_P(SsspSuite, NonZeroSourceMatches) {
  const Graph g = make_graph();
  const VertexId src = g.num_vertices() / 2;
  const DistributedGraph dg(g,
                            graph::hash_partition(g.num_vertices(), workers()));
  const auto expect = ref::sssp(g, src);
  std::vector<std::uint64_t> got;
  algo::run_collect<algo::Sssp>(
      dg, got, [](const algo::SsspVertex& v) { return v.value().dist; },
      [src](algo::Sssp& w) { w.source = src; });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(got[v], expect[v]) << "vertex " << v;
  }
}

std::string sssp_case_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kinds[] = {"road", "rmatw", "chain"};
  return std::string(kinds[std::get<0>(info.param)]) + "_w" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Graphs, SsspSuite,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 3, 4)),
                         sssp_case_name);

// --------------------------------------------- SSSP on Propagation (f) ---

class SsspPropSuite : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  Graph make_graph() const {
    switch (std::get<0>(GetParam())) {
      case 0:
        return graph::grid_road(25, 25, 60, 17);
      case 1:
        return graph::rmat({.num_vertices = 1 << 10,
                            .num_edges = 1 << 13,
                            .seed = 23,
                            .weighted = true,
                            .max_weight = 40});
      default:
        return graph::chain(300).symmetrized();
    }
  }
  int workers() const { return std::get<1>(GetParam()); }
};

TEST_P(SsspPropSuite, MatchesDijkstra) {
  const Graph g = make_graph();
  const DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), workers()));
  const auto expect = ref::sssp(g, 0);
  std::vector<std::uint64_t> got;
  const auto stats = algo::run_collect<algo::SsspPropagation>(
      dg, got, [](const algo::SsspVertex& v) { return v.value().dist; },
      [](algo::SsspPropagation& w) { w.source = 0; });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(got[v], expect[v]) << "vertex " << v;
  }
  EXPECT_EQ(stats.supersteps, 2);  // diameter-independent
}

TEST_P(SsspPropSuite, AgreesWithMessagePassingSssp) {
  const Graph g = make_graph();
  const VertexId src = g.num_vertices() / 3;
  const DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), workers()));
  std::vector<std::uint64_t> a, b;
  algo::run_collect<algo::Sssp>(
      dg, a, [](const algo::SsspVertex& v) { return v.value().dist; },
      [src](algo::Sssp& w) { w.source = src; });
  algo::run_collect<algo::SsspPropagation>(
      dg, b, [](const algo::SsspVertex& v) { return v.value().dist; },
      [src](algo::SsspPropagation& w) { w.source = src; });
  EXPECT_EQ(a, b);
}

std::string sssp_prop_name(
    const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
  static const char* kinds[] = {"road", "rmatw", "chain"};
  return std::string(kinds[std::get<0>(info.param)]) + "_w" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Graphs, SsspPropSuite,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 2, 4)),
                         sssp_prop_name);

// ------------------------------------------------------- PointerJumping ---

class PointerJumpingSuite
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {
 protected:
  Graph make_graph() const {
    const auto seed = std::get<2>(GetParam());
    switch (std::get<0>(GetParam())) {
      case 0:
        return graph::chain(2000);
      case 1:
        return graph::random_tree(3000, seed);
      case 2:
        return graph::star(1500);
      default: {
        // A forest: several random trees glued as disjoint id ranges.
        Graph g(1200);
        for (VertexId v = 1; v < 400; ++v) g.add_edge(v, (v - 1) / 2);
        for (VertexId v = 401; v < 800; ++v) g.add_edge(v, 400);
        for (VertexId v = 801; v < 1200; ++v) g.add_edge(v, v - 1);
        return g;
      }
    }
  }
  int workers() const { return std::get<1>(GetParam()); }
};

TEST_P(PointerJumpingSuite, BasicFindsRoots) {
  const Graph g = make_graph();
  const DistributedGraph dg(g,
                            graph::hash_partition(g.num_vertices(), workers()));
  const auto expect = ref::pointer_jumping_roots(g);
  std::vector<VertexId> got;
  algo::run_collect<algo::PointerJumpingBasic>(
      dg, got, [](const algo::PJVertex& v) { return v.value().parent; });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(got[v], expect[v]) << "vertex " << v;
  }
}

TEST_P(PointerJumpingSuite, ReqRespFindsRoots) {
  const Graph g = make_graph();
  const DistributedGraph dg(g,
                            graph::hash_partition(g.num_vertices(), workers()));
  const auto expect = ref::pointer_jumping_roots(g);
  std::vector<VertexId> got;
  algo::run_collect<algo::PointerJumpingReqResp>(
      dg, got, [](const algo::PJVertex& v) { return v.value().parent; });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(got[v], expect[v]) << "vertex " << v;
  }
}

TEST_P(PointerJumpingSuite, ReqRespNeedsFewerSuperstepsThanBasic) {
  const Graph g = make_graph();
  const DistributedGraph dg(g,
                            graph::hash_partition(g.num_vertices(), workers()));
  std::vector<VertexId> sink;
  const auto basic = algo::run_collect<algo::PointerJumpingBasic>(
      dg, sink, [](const algo::PJVertex& v) { return v.value().parent; });
  const auto rr = algo::run_collect<algo::PointerJumpingReqResp>(
      dg, sink, [](const algo::PJVertex& v) { return v.value().parent; });
  EXPECT_LT(rr.supersteps, basic.supersteps);
}

std::string pj_case_name(
    const ::testing::TestParamInfo<std::tuple<int, int, std::uint64_t>>&
        info) {
  static const char* kinds[] = {"chain", "tree", "star", "forest"};
  return std::string(kinds[std::get<0>(info.param)]) + "_w" +
         std::to_string(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Graphs, PointerJumpingSuite,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1, 4),
                                            ::testing::Values(1u, 99u)),
                         pj_case_name);

// ------------------------------------------------------------------ WCC ---

class WccSuite
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {
 protected:
  Graph make_graph() const {
    const auto seed = std::get<2>(GetParam());
    switch (std::get<0>(GetParam())) {
      case 0:
        return graph::random_undirected(2000, 2.5, seed);
      case 1:
        return graph::rmat({.num_vertices = 1 << 10,
                            .num_edges = 1 << 12,
                            .seed = seed})
            .symmetrized();
      default:
        return graph::grid_road(30, 30, 10, seed);
    }
  }
  int workers() const { return std::get<1>(GetParam()); }
};

TEST_P(WccSuite, BasicMatchesReference) {
  const Graph g = make_graph();
  const DistributedGraph dg(g,
                            graph::hash_partition(g.num_vertices(), workers()));
  const auto expect = ref::connected_components(g);
  std::vector<VertexId> got;
  algo::run_collect<algo::WccBasic>(
      dg, got, [](const algo::WccVertex& v) { return v.value().label; });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(got[v], expect[v]) << "vertex " << v;
  }
}

TEST_P(WccSuite, PropagationMatchesReference) {
  const Graph g = make_graph();
  const DistributedGraph dg(g,
                            graph::hash_partition(g.num_vertices(), workers()));
  const auto expect = ref::connected_components(g);
  std::vector<VertexId> got;
  const auto stats = algo::run_collect<algo::WccPropagation>(
      dg, got, [](const algo::WccVertex& v) { return v.value().label; });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(got[v], expect[v]) << "vertex " << v;
  }
  EXPECT_EQ(stats.supersteps, 2);  // diameter-independent
}

TEST_P(WccSuite, PropagationWorksOnVoronoiPartition) {
  const Graph g = make_graph();
  graph::VoronoiOptions vopts;
  vopts.num_workers = workers();
  const DistributedGraph dg(g, graph::voronoi_partition(g, vopts));
  const auto expect = ref::connected_components(g);
  std::vector<VertexId> got;
  algo::run_collect<algo::WccPropagation>(
      dg, got, [](const algo::WccVertex& v) { return v.value().label; });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(got[v], expect[v]) << "vertex " << v;
  }
}

std::string wcc_case_name(
    const ::testing::TestParamInfo<std::tuple<int, int, std::uint64_t>>&
        info) {
  static const char* kinds[] = {"social", "rmat", "road"};
  return std::string(kinds[std::get<0>(info.param)]) + "_w" +
         std::to_string(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Graphs, WccSuite,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 2, 4),
                                            ::testing::Values(5u, 31u)),
                         wcc_case_name);

}  // namespace
