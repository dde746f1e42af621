// Unit tests for the graph substrate: generators, partitioners, the
// distributed view, and I/O.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <numeric>
#include <set>
#include <stdexcept>

#include "graph/distributed.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "ref/reference.hpp"

namespace {

using namespace pregel::graph;

// ----------------------------------------------------------------- Graph --

TEST(Graph, AddAndQueryEdges) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2, 7);
  g.add_edge(3, 0);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out(0)[1].weight, 7u);
}

TEST(Graph, AddEdgeBoundsChecksBothEndpoints) {
  Graph g(4);
  // volatile: keeps GCC from statically proving the (never-executed)
  // out-of-bounds adjacency access behind the throwing check.
  volatile VertexId bad = 9;
  EXPECT_THROW(g.add_edge(bad, 0), std::out_of_range);  // bad source
  EXPECT_THROW(g.add_edge(0, bad), std::out_of_range);  // bad destination
  EXPECT_EQ(g.num_edges(), 0u);  // failed adds must not count
}

TEST(Graph, AvgDegreeOnEmptyGraphIsZero) {
  const Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.avg_degree(), 0.0);
  EXPECT_EQ(g.finalize().avg_degree(), 0.0);
}

TEST(Graph, SymmetrizedHasBothDirections) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const Graph s = g.symmetrized();
  EXPECT_EQ(s.num_edges(), 4u);
  EXPECT_EQ(s.out_degree(1), 2u);
  EXPECT_EQ(s.out_degree(2), 1u);
}

TEST(Graph, SimplifyRemovesDuplicatesAndLoops) {
  Graph g(3);
  g.add_edge(0, 1, 5);
  g.add_edge(0, 1, 3);
  g.add_edge(0, 0);
  g.add_edge(1, 2);
  g.simplify();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.out(0).size(), 1u);
  EXPECT_EQ(g.out(0)[0].weight, 3u);  // keeps the lighter duplicate
}

// ------------------------------------------------------------ Generators --

TEST(Generators, ChainIsAParentForestWithOneRoot) {
  const Graph g = chain(100);
  EXPECT_EQ(g.num_edges(), 99u);
  EXPECT_EQ(g.out_degree(0), 0u);
  for (VertexId v = 1; v < 100; ++v) {
    ASSERT_EQ(g.out_degree(v), 1u);
    EXPECT_EQ(g.out(v)[0].dst, v - 1);
  }
}

TEST(Generators, RandomTreeParentsPrecede) {
  const Graph g = random_tree(500, 42);
  EXPECT_EQ(g.out_degree(0), 0u);
  for (VertexId v = 1; v < 500; ++v) {
    ASSERT_EQ(g.out_degree(v), 1u);
    EXPECT_LT(g.out(v)[0].dst, v);
  }
}

TEST(Generators, RandomTreeIsSeedDeterministic) {
  const Graph a = random_tree(200, 7);
  const Graph b = random_tree(200, 7);
  const Graph c = random_tree(200, 8);
  bool same_ab = true, same_ac = true;
  for (VertexId v = 1; v < 200; ++v) {
    same_ab &= (a.out(v)[0].dst == b.out(v)[0].dst);
    same_ac &= (a.out(v)[0].dst == c.out(v)[0].dst);
  }
  EXPECT_TRUE(same_ab);
  EXPECT_FALSE(same_ac);
}

TEST(Generators, RmatRespectsEdgeBudgetAndSkew) {
  RmatOptions opts;
  opts.num_vertices = 1 << 12;
  opts.num_edges = 1 << 15;
  opts.seed = 3;
  const Graph g = rmat(opts);
  EXPECT_EQ(g.num_vertices(), 1u << 12);
  EXPECT_LE(g.num_edges(), opts.num_edges);
  EXPECT_GE(g.num_edges(), opts.num_edges * 9 / 10);  // few self loops
  // Power-law-ish: the busiest vertex should far exceed the average degree.
  std::uint32_t max_deg = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    max_deg = std::max(max_deg, g.out_degree(v));
  }
  EXPECT_GT(max_deg, 10 * static_cast<std::uint32_t>(g.avg_degree() + 1));

  // A vertex count that rounds up past 2^31 has no 32-bit power of two.
  opts.num_vertices = (1u << 31) + 1;
  EXPECT_THROW((void)rmat(opts), std::invalid_argument);
}

TEST(Generators, RmatWeightedProducesWeightsInRange) {
  RmatOptions opts;
  opts.num_vertices = 1 << 10;
  opts.num_edges = 1 << 12;
  opts.weighted = true;
  opts.max_weight = 50;
  const Graph g = rmat(opts);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const Edge& e : g.out(v)) {
      EXPECT_GE(e.weight, 1u);
      EXPECT_LE(e.weight, 50u);
    }
  }
}

TEST(Generators, RandomUndirectedIsSymmetric) {
  const Graph g = random_undirected(1000, 3.0, 11);
  // Every edge must exist in both directions.
  std::set<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const Edge& e : g.out(v)) edges.insert({v, e.dst});
  }
  for (const auto& [u, v] : edges) {
    EXPECT_TRUE(edges.count({v, u})) << u << "->" << v << " unmatched";
  }
  EXPECT_NEAR(g.avg_degree(), 3.0, 0.5);
}

TEST(Generators, GridRoadIsConnectedAndWeighted) {
  const Graph g = grid_road(20, 30, 50, 5);
  EXPECT_EQ(g.num_vertices(), 600u);
  const auto comp = pregel::ref::connected_components(g);
  EXPECT_EQ(pregel::ref::count_distinct(comp), 1u);
}

TEST(Generators, StarAndBinaryTreeShapes) {
  const Graph s = star(10);
  EXPECT_EQ(s.out_degree(0), 0u);
  for (VertexId v = 1; v < 10; ++v) EXPECT_EQ(s.out(v)[0].dst, 0u);
  const Graph b = binary_tree(15);
  EXPECT_EQ(b.out(14)[0].dst, 6u);
}

// ------------------------------------------------------------ Partitions --

TEST(Partition, HashPartitionBalances) {
  const Partition p = hash_partition(1000, 4);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(p.members[static_cast<std::size_t>(r)].size(), 250u);
  }
  // owner/local_of/members agree
  for (VertexId v = 0; v < 1000; ++v) {
    EXPECT_EQ(p.members[static_cast<std::size_t>(p.owner[v])][p.local_of[v]],
              v);
  }
}

TEST(Partition, RangePartitionIsContiguous) {
  const Partition p = range_partition(100, 3);
  for (VertexId v = 1; v < 100; ++v) {
    EXPECT_GE(p.owner[v], p.owner[v - 1]);
  }
}

TEST(Partition, FromOwnerValidates) {
  EXPECT_THROW(from_owner({0, 1, 5}, 2), std::invalid_argument);
  const Partition p = from_owner({1, 0, 1}, 2);
  EXPECT_EQ(p.members[1].size(), 2u);
}

TEST(Partition, VoronoiCoversAllVerticesAndBalances) {
  const Graph g = grid_road(40, 40, 0, 9);
  VoronoiOptions opts;
  opts.num_workers = 4;
  const Partition p = voronoi_partition(g, opts);
  EXPECT_EQ(p.num_vertices(), g.num_vertices());
  std::vector<std::size_t> counts(4, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_GE(p.owner[v], 0);
    ASSERT_LT(p.owner[v], 4);
    ASSERT_NE(p.block_of[v], kNoBlock);
    ++counts[static_cast<std::size_t>(p.owner[v])];
  }
  for (const auto c : counts) {
    EXPECT_GT(c, g.num_vertices() / 8);  // no worker starves
  }
}

TEST(Partition, VoronoiCutsFewerEdgesThanHash) {
  const Graph g = grid_road(50, 50, 0, 13);
  const Partition hash = hash_partition(g.num_vertices(), 4);
  VoronoiOptions opts;
  opts.num_workers = 4;
  const Partition voronoi = voronoi_partition(g, opts);
  // On a mesh, locality partitioning must beat random placement clearly.
  EXPECT_LT(voronoi.edge_cut(g), 0.5 * hash.edge_cut(g));
}

// ------------------------------------------------------ DistributedGraph --

TEST(DistributedGraph, SlicesPreserveAdjacency) {
  const Graph g = random_tree(300, 21);
  const DistributedGraph dg(g, hash_partition(g.num_vertices(), 4));
  EXPECT_EQ(dg.num_vertices(), g.num_vertices());
  for (int rank = 0; rank < dg.num_workers(); ++rank) {
    for (std::uint32_t l = 0; l < dg.num_local(rank); ++l) {
      const VertexId v = dg.global_id(rank, l);
      const auto expect = g.out(v);
      const auto got = dg.out(rank, l);
      ASSERT_EQ(expect.size(), got.size());
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(expect[i].dst, got[i].dst);
      }
      EXPECT_EQ(dg.owner(v), rank);
      EXPECT_EQ(dg.local_index(v), l);
    }
  }
}

TEST(DistributedGraph, RejectsMismatchedPartition) {
  const Graph g = chain(10);
  EXPECT_THROW(DistributedGraph(g, hash_partition(11, 2)),
               std::invalid_argument);
}

// ----------------------------------------------------------------- IO ----

TEST(GraphIO, EdgeListRoundTrip) {
  const Graph g = erdos_renyi(50, 200, 17);
  const auto path =
      (std::filesystem::temp_directory_path() / "pgch_el_test.txt").string();
  save_edge_list(g, path, /*weighted=*/false);
  const Graph h = load_edge_list(path);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  std::remove(path.c_str());
}

TEST(GraphIO, BinaryRoundTripPreservesWeights) {
  RmatOptions opts;
  opts.num_vertices = 256;
  opts.num_edges = 1024;
  opts.weighted = true;
  const Graph g = rmat(opts);
  const auto path =
      (std::filesystem::temp_directory_path() / "pgch_bin_test.bin").string();
  save_binary(g, path);
  const CsrGraph h = load_binary_mmap(path);
  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto a = g.out(v);
    const auto b = h.out(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].dst, b[i].dst);
      EXPECT_EQ(a[i].weight, b[i].weight);
    }
  }
  std::remove(path.c_str());
}

TEST(GraphIO, LoadMissingFileThrows) {
  EXPECT_THROW(load_edge_list("/nonexistent/nope.txt"), std::runtime_error);
  EXPECT_THROW(load_binary_mmap("/nonexistent/nope.bin"),
               std::runtime_error);
}

}  // namespace
