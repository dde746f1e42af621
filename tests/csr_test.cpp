// Tests for the CSR graph core and the binary snapshot pipeline:
// builder→CSR equivalence, the to_graph round trip, array validation,
// snapshot round-trips with corrupt-file rejection, the edge-list
// converter path, and the partitioners over CSR views.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "graph/csr.hpp"
#include "graph/distributed.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"

namespace {

using namespace pregel::graph;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Per-vertex adjacency equality between the builder and CSR forms.
void expect_same_adjacency(const Graph& g, const CsrGraph& c) {
  ASSERT_EQ(g.num_vertices(), c.num_vertices());
  ASSERT_EQ(g.num_edges(), c.num_edges());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto expect = g.out(u);
    const auto got = c.out(u);
    ASSERT_EQ(expect.size(), got.size()) << "vertex " << u;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(expect[i].dst, got[i].dst);
      EXPECT_EQ(expect[i].weight, got[i].weight);
    }
  }
}

// ------------------------------------------------- builder → CSR ----------

TEST(Csr, FinalizePreservesWeightedAdjacency) {
  RmatOptions opts;
  opts.num_vertices = 512;
  opts.num_edges = 4096;
  opts.weighted = true;
  opts.seed = 5;
  const Graph g = rmat(opts);
  const CsrGraph c = g.finalize();
  EXPECT_TRUE(c.is_weighted());
  expect_same_adjacency(g, c);
}

TEST(Csr, FinalizePreservesUnweightedAdjacency) {
  const Graph g = erdos_renyi(300, 1500, 23);
  const CsrGraph c = g.finalize();
  EXPECT_FALSE(c.is_weighted());  // all-1 weights: SoA array dropped
  EXPECT_TRUE(c.weight_array().empty());
  expect_same_adjacency(g, c);
}

TEST(Csr, ZeroWeightsAreRealWeights) {
  // SCC's bidirected encoding uses weight 0 as a direction tag; the
  // weight-array elision must only trigger on all-ONES, not all-equal.
  Graph g(3);
  g.add_edge(0, 1, 0);
  g.add_edge(1, 2, 0);
  const CsrGraph c = g.finalize();
  EXPECT_TRUE(c.is_weighted());
  EXPECT_EQ(c.out(0)[0].weight, 0u);
}

TEST(Csr, NeighborsAreContiguousAcrossVertices) {
  const Graph g = erdos_renyi(100, 500, 3);
  const CsrGraph c = g.finalize();
  // CSR invariant: vertex u+1's span starts exactly where u's ends.
  const VertexId u = 0;
  const auto a = c.neighbors(u);
  const auto b = c.neighbors(u + 1);
  EXPECT_EQ(a.data() + a.size(), b.data());
  EXPECT_EQ(c.out_degree(u), a.size());
}

TEST(Csr, EmptyGraph) {
  const CsrGraph c = Graph().finalize();
  EXPECT_EQ(c.num_vertices(), 0u);
  EXPECT_EQ(c.num_edges(), 0u);
  EXPECT_EQ(c.avg_degree(), 0.0);
}

TEST(Csr, EdgeSpanSupportsStandardAlgorithms) {
  Graph g(4);
  g.add_edge(0, 3, 9);
  g.add_edge(0, 1, 7);
  g.add_edge(0, 2, 8);
  const CsrGraph c = g.finalize();
  const EdgeSpan span = c.out(0);
  // Copy out through iterators (the MSF algorithms do exactly this).
  std::vector<Edge> copy;
  copy.assign(span.begin(), span.end());
  ASSERT_EQ(copy.size(), 3u);
  std::sort(copy.begin(), copy.end(),
            [](const Edge& a, const Edge& b) { return a.dst < b.dst; });
  EXPECT_EQ(copy.front().dst, 1u);
  EXPECT_EQ(copy.back().weight, 9u);
  // Random access on the view itself.
  EXPECT_EQ(span[1].dst, 1u);
  EXPECT_EQ(span.front().dst, 3u);
  EXPECT_EQ((span.end() - span.begin()), 3);
}

// ------------------------------------------- round trip and validation ------

TEST(Csr, ToGraphRoundTrips) {
  RmatOptions opts;
  opts.num_vertices = 128;
  opts.num_edges = 512;
  opts.weighted = true;
  opts.seed = 13;
  const Graph g = rmat(opts);
  const CsrGraph c = g.finalize();
  expect_same_adjacency(c.to_graph(), c);
  EXPECT_EQ(c.to_graph().finalize().checksum(), c.checksum());
}

// ------------------------------------------------- array validation -------

TEST(Csr, FromArraysRejectsCorruptShapes) {
  // Non-monotone offsets.
  EXPECT_THROW(CsrGraph::from_arrays({0, 2, 1}, {0, 1}, {}),
               std::invalid_argument);
  // Last offset disagrees with |E|.
  EXPECT_THROW(CsrGraph::from_arrays({0, 1, 3}, {0, 1}, {}),
               std::invalid_argument);
  // First offset not zero.
  EXPECT_THROW(CsrGraph::from_arrays({1, 2, 2}, {0, 1}, {}),
               std::invalid_argument);
  // Destination out of range.
  EXPECT_THROW(CsrGraph::from_arrays({0, 1, 2}, {0, 7}, {}),
               std::invalid_argument);
  // Weight array of the wrong length.
  EXPECT_THROW(CsrGraph::from_arrays({0, 1, 2}, {0, 1}, {5}),
               std::invalid_argument);
  // A valid shape passes.
  const CsrGraph ok = CsrGraph::from_arrays({0, 1, 2}, {1, 0}, {5, 6});
  EXPECT_EQ(ok.num_vertices(), 2u);
  EXPECT_EQ(ok.out(1)[0].weight, 6u);
}

// ------------------------------------------------- snapshots --------------

TEST(Snapshot, RoundTripIsBitIdentical) {
  RmatOptions opts;
  opts.num_vertices = 512;
  opts.num_edges = 4096;
  opts.weighted = true;
  opts.seed = 41;
  const CsrGraph g = rmat(opts).finalize();
  const auto path = temp_path("pgch_csr_rt.bin");
  save_binary(g, path);
  const CsrGraph h = load_binary_mmap(path);
  EXPECT_EQ(g, h);  // array-level equality
  EXPECT_EQ(g.checksum(), h.checksum());
  std::remove(path.c_str());
}

TEST(Snapshot, UnweightedSnapshotSkipsWeightArray) {
  const CsrGraph g = erdos_renyi(256, 2048, 3).finalize();
  const auto path = temp_path("pgch_csr_uw.bin");
  save_binary(g, path);
  // Format v3: 64-byte header, offsets at 64, dsts at the next 64-byte
  // boundary, no weight array (and no padding after the last array).
  const auto align64 = [](std::uint64_t v) { return (v + 63) & ~63ull; };
  const auto dst_off = align64(64 + (g.num_vertices() + 1ull) * 8);
  const auto expect_bytes = dst_off + g.num_edges() * 4;
  EXPECT_EQ(std::filesystem::file_size(path), expect_bytes);
  EXPECT_EQ(load_binary_mmap(path), g);
  std::remove(path.c_str());
}

/// Corruption helper: flip one byte at `pos` in the file.
void flip_byte(const std::string& path, std::size_t pos) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(pos));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(pos));
  f.write(&c, 1);
}

TEST(Snapshot, RejectsCorruptHeaderAndPayload) {
  const CsrGraph g = erdos_renyi(64, 256, 19).finalize();
  const auto path = temp_path("pgch_csr_corrupt.bin");

  save_binary(g, path);
  flip_byte(path, 0);  // magic
  EXPECT_THROW(load_binary_mmap(path), std::runtime_error);

  save_binary(g, path);
  flip_byte(path, 4);  // version
  EXPECT_THROW(load_binary_mmap(path), std::runtime_error);

  save_binary(g, path);
  flip_byte(path, 8);  // flags: unknown bits must be rejected
  EXPECT_THROW(load_binary_mmap(path), std::runtime_error);

  save_binary(g, path);
  flip_byte(path, 23);  // num_edges high byte: must fail the size sanity
  EXPECT_THROW(load_binary_mmap(path), std::runtime_error);  // check first

  save_binary(g, path);
  flip_byte(path, 24);  // stored checksum itself
  EXPECT_THROW(load_binary_mmap(path), std::runtime_error);

  save_binary(g, path);
  flip_byte(path, 40);  // dst_off header field: breaks the canonical
  EXPECT_THROW(load_binary_mmap(path), std::runtime_error);  // layout

  save_binary(g, path);
  flip_byte(path, 64 + 9 * 8);  // an offsets entry (payload corruption)
  EXPECT_THROW(load_binary_mmap(path), std::runtime_error);

  save_binary(g, path);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 5);  // truncated arrays
  EXPECT_THROW(load_binary_mmap(path), std::runtime_error);

  std::filesystem::resize_file(path, 10);  // truncated header
  EXPECT_THROW(load_binary_mmap(path), std::runtime_error);

  std::remove(path.c_str());
}

TEST(Snapshot, NamesByteSwappedMagicAsBigEndian) {
  // A snapshot whose magic arrives byte-swapped was raw-dumped on a
  // big-endian host; the loader must say so instead of "bad magic", and
  // load_any must route it to that error instead of the text parser.
  const CsrGraph g = erdos_renyi(64, 256, 23).finalize();
  const auto path = temp_path("pgch_csr_bswap.bin");
  save_binary(g, path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    char magic[4];
    f.read(magic, 4);
    std::swap(magic[0], magic[3]);
    std::swap(magic[1], magic[2]);
    f.seekp(0);
    f.write(magic, 4);
  }
  for (const auto* loader : {"load_binary_mmap", "load_any"}) {
    try {
      if (std::string(loader) == "load_binary_mmap") {
        (void)load_binary_mmap(path);
      } else {
        (void)load_any(path);
      }
      FAIL() << loader << " accepted a byte-swapped snapshot";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("big-endian"), std::string::npos)
          << loader << " error should name the endianness: " << e.what();
    }
  }
  std::remove(path.c_str());
}

// ------------------------------------------------- converter path ---------

TEST(Converter, EdgeListToSnapshotReloadsIdentically) {
  // The acceptance-criteria pipeline: text edge list -> binary snapshot ->
  // reload, checksum-verified against finalizing the text directly.
  RmatOptions opts;
  opts.num_vertices = 256;
  opts.num_edges = 1024;
  opts.weighted = true;
  opts.seed = 55;
  const Graph g = rmat(opts);
  const auto txt = temp_path("pgch_conv.txt");
  const auto bin = temp_path("pgch_conv.bin");

  save_edge_list(g, txt, /*weighted=*/true);
  const CsrGraph from_text = load_any(txt);
  save_binary(from_text, bin);
  const CsrGraph from_snapshot = load_any(bin);

  EXPECT_EQ(from_text, from_snapshot);
  EXPECT_EQ(g.finalize().checksum(), from_snapshot.checksum());

  std::remove(txt.c_str());
  std::remove(bin.c_str());
}

TEST(Converter, HeaderlessSnapStyleListsLoad) {
  const auto path = temp_path("pgch_snap_style.txt");
  {
    std::ofstream out(path);
    out << "# Directed graph, SNAP-style: no header line\n"
        << "0 4\n4 2\n2 0\n# trailing comment\n7 0\n";
  }
  const Graph g = load_edge_list_auto(path);
  EXPECT_EQ(g.num_vertices(), 8u);  // max id 7 -> 8 vertices
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out(4)[0].dst, 2u);

  // And the weighted variant: a third column switches weights on.
  {
    std::ofstream out(path);
    out << "0 1 5\n1 2 6\n";
  }
  const Graph w = load_edge_list_auto(path);
  EXPECT_EQ(w.out(0)[0].weight, 5u);
  std::remove(path.c_str());
}

TEST(Converter, MalformedHeaderedListsAreRefused) {
  // Each would otherwise load with every weight silently dropped (or as
  // an empty graph); the error names the offending flag or line.
  struct Case {
    const char* text;
    const char* names;
  };
  const Case cases[] = {
      {"3 wieghted\n0 1 5\n1 2 7\n", "wieghted"},     // unknown header flag
      {"3 weighted sorted\n0 1 5\n", "sorted"},       // trailing header flag
      {"x3 weighted\n0 1 5\n", "x3 weighted"},        // non-numeric header
      {"3\n0 1\n0 1 5\n1 2 7\n", "0 1 5"},            // extra row token
      {"3 weighted\n0 1 5 9\n", "0 1 5 9"},           // extra weighted token
  };
  const auto path = temp_path("pgch_bad_header.txt");
  for (const Case& c : cases) {
    std::ofstream(path) << c.text;
    for (const auto* loader : {"load_edge_list", "load_edge_list_auto"}) {
      try {
        (void)(std::string(loader) == "load_edge_list"
                   ? load_edge_list(path)
                   : load_edge_list_auto(path));
        ADD_FAILURE() << loader << " accepted: " << c.text;
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(c.names), std::string::npos)
            << loader << ": " << e.what();
      }
    }
  }
  std::remove(path.c_str());
}

// ------------------------------------------------- CSR views --------------

TEST(CsrViews, PartitionersAgreeWithBuilderForm) {
  const Graph g = grid_road(30, 30, 20, 4);
  const CsrGraph c = g.finalize();

  const Partition hash = hash_partition(c.num_vertices(), 4);
  EXPECT_DOUBLE_EQ(hash.edge_cut(c), hash.edge_cut(g));

  VoronoiOptions opts;
  opts.num_workers = 4;
  const Partition pc = voronoi_partition(c, opts);
  const Partition pg = voronoi_partition(g, opts);
  // Same seed, same adjacency order -> identical region growth.
  EXPECT_EQ(pc.owner, pg.owner);
  EXPECT_EQ(pc.block_of, pg.block_of);
  for (VertexId v = 0; v < c.num_vertices(); ++v) {
    ASSERT_NE(pc.block_of[v], kNoBlock);
  }
}

TEST(CsrViews, DistributedGraphServesSharedCsrViews) {
  RmatOptions opts;
  opts.num_vertices = 256;
  opts.num_edges = 2048;
  opts.weighted = true;
  opts.seed = 61;
  const CsrGraph c = rmat(opts).finalize();
  const DistributedGraph dg(c, hash_partition(c.num_vertices(), 3));

  EXPECT_EQ(dg.csr(), c);
  for (int rank = 0; rank < dg.num_workers(); ++rank) {
    for (std::uint32_t l = 0; l < dg.num_local(rank); ++l) {
      const VertexId v = dg.global_id(rank, l);
      const auto view = dg.out(rank, l);
      const auto direct = dg.csr().neighbors(v);
      ASSERT_EQ(view.size(), direct.size());
      // Views, not copies: the span aliases the shared CSR arrays.
      EXPECT_EQ(view.targets().data(), direct.data());
    }
  }
}

TEST(CsrViews, RangeAndVoronoiPartitionsDriveDistributedGraph) {
  const CsrGraph c = grid_road(20, 20, 0, 2).finalize();
  const DistributedGraph by_range(c, range_partition(c.num_vertices(), 3));
  VoronoiOptions opts;
  opts.num_workers = 3;
  const DistributedGraph by_voronoi(c, voronoi_partition(c, opts));
  std::uint64_t range_edges = 0, voronoi_edges = 0;
  for (int rank = 0; rank < 3; ++rank) {
    for (std::uint32_t l = 0; l < by_range.num_local(rank); ++l) {
      range_edges += by_range.out(rank, l).size();
    }
    for (std::uint32_t l = 0; l < by_voronoi.num_local(rank); ++l) {
      voronoi_edges += by_voronoi.out(rank, l).size();
    }
  }
  // Every edge is served exactly once regardless of the partitioner.
  EXPECT_EQ(range_edges, c.num_edges());
  EXPECT_EQ(voronoi_edges, c.num_edges());
}

}  // namespace
