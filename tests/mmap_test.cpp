// Tests for the one snapshot loader (DESIGN.md section 5): a mapped
// format-v3 load must be bitwise-identical to the graph that was saved,
// retired v2 snapshots must be refused by name, corrupt and truncated
// files must be rejected, the verify-once checksum cache must do what it
// claims, the mapping must outlive every copy of the graph, and a 2-rank
// TCP run over one mapped snapshot must match the run over the owned
// in-memory graph bitwise.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>

#include "algorithms/pagerank.hpp"
#include "algorithms/runner.hpp"
#include "graph/csr.hpp"
#include "graph/distributed.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "runtime/mapped_file.hpp"
#include "runtime/team.hpp"
#include "tcp_mesh.hpp"

namespace {

using namespace pregel;
using namespace pregel::graph;
using pregel::runtime::MappedFile;
using pregel::runtime::RunStats;
using pregel::runtime::WorkerTeam;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

CsrGraph test_graph(std::uint64_t seed, bool weighted = true) {
  RmatOptions opts;
  opts.num_vertices = 512;
  opts.num_edges = 4096;
  opts.weighted = weighted;
  opts.seed = seed;
  return rmat(opts).finalize();
}

/// Write `g` in the RETIRED v2 layout (32-byte header, arrays packed
/// right behind it, no alignment) — the fixture every loader must refuse
/// by name.
void save_binary_v2(const CsrGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out);
  const auto put = [&](const auto v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(std::uint32_t{0x53434750});  // magic "PGCS"
  put(std::uint32_t{2});           // version
  put(std::uint32_t{g.is_weighted() ? 1u : 0u});
  put(g.num_vertices());
  put(g.num_edges());
  put(g.checksum());
  const auto put_span = [&](const auto span) {
    out.write(reinterpret_cast<const char*>(span.data()),
              static_cast<std::streamsize>(span.size_bytes()));
  };
  put_span(g.offsets());
  put_span(g.dst_array());
  put_span(g.weight_array());
  ASSERT_TRUE(out);
}

/// Flip one byte at `pos` (same fixture csr_test uses).
void flip_byte(const std::string& path, std::size_t pos) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(pos));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(pos));
  f.write(&c, 1);
}

// ------------------------------------------------------ bitwise loads --

TEST(MmapLoad, MatchesSavedGraphBitwise) {
  const CsrGraph g = test_graph(101);
  const auto path = temp_path("pgch_mmap_eq.bin");
  save_binary(g, path);

  const CsrGraph mapped = load_binary_mmap(path);
  EXPECT_FALSE(g.has_external_storage());
  EXPECT_TRUE(mapped.has_external_storage());
  EXPECT_EQ(g, mapped);  // element-wise over all three arrays
  EXPECT_EQ(g.checksum(), mapped.checksum());

  // The v3 arrays really sit on 64-byte boundaries in the mapping.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(mapped.offsets().data()) % 64,
            0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(mapped.dst_array().data()) % 64,
            0u);
  EXPECT_EQ(
      reinterpret_cast<std::uintptr_t>(mapped.weight_array().data()) % 64, 0u);
  std::remove(path.c_str());
}

TEST(MmapLoad, LoadAnyMapsSnapshotsAndParsesText) {
  const CsrGraph g = test_graph(103, /*weighted=*/false);
  const auto bin = temp_path("pgch_mmap_any.bin");
  const auto txt = temp_path("pgch_mmap_any.txt");
  save_binary(g, bin);
  save_edge_list(g.to_graph(), txt);

  const CsrGraph mapped = load_any(bin);
  EXPECT_TRUE(mapped.has_external_storage());
  EXPECT_EQ(mapped, g);
  const CsrGraph parsed = load_any(txt);
  EXPECT_FALSE(parsed.has_external_storage());
  EXPECT_EQ(parsed, g);

  std::remove(bin.c_str());
  std::remove(txt.c_str());
}

// ------------------------------------------------------- retired v2 --

TEST(MmapLoad, V2SnapshotIsRefusedByName) {
  const CsrGraph g = test_graph(107);
  const auto path = temp_path("pgch_mmap_v2.bin");
  save_binary_v2(g, path);

  for (const auto* loader : {"load_binary_mmap", "load_any"}) {
    try {
      (void)(std::string(loader) == "load_any" ? load_any(path)
                                               : load_binary_mmap(path));
      ADD_FAILURE() << loader << " accepted a v2 snapshot";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("format v2"), std::string::npos) << what;
      EXPECT_NE(what.find("graph_convert"), std::string::npos) << what;
    }
  }
  std::remove(path.c_str());
}

// ------------------------------------------------- corrupt-file rejection --

TEST(MmapLoad, RejectsCorruptTruncatedAndByteSwapped) {
  const CsrGraph g = test_graph(113);
  const auto path = temp_path("pgch_mmap_corrupt.bin");

  save_binary(g, path);
  flip_byte(path, 0);  // magic
  EXPECT_THROW(load_binary_mmap(path), std::runtime_error);

  save_binary(g, path);
  flip_byte(path, 24);  // stored checksum
  EXPECT_THROW(load_binary_mmap(path), std::runtime_error);

  save_binary(g, path);
  flip_byte(path, 40);  // dst_off header field: non-canonical layout
  EXPECT_THROW(load_binary_mmap(path), std::runtime_error);

  save_binary(g, path);
  const auto dst_off = snapshot_info(path)->dst_off;
  flip_byte(path, dst_off + 17);  // payload corruption (a dst entry)
  EXPECT_THROW(load_binary_mmap(path), std::runtime_error);

  save_binary(g, path);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 5);  // truncated arrays
  EXPECT_THROW(load_binary_mmap(path), std::runtime_error);

  std::filesystem::resize_file(path, 10);  // truncated header
  EXPECT_THROW(load_binary_mmap(path), std::runtime_error);

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
  try {
    (void)load_binary_mmap(path);
    FAIL() << "mapper accepted a byte-swapped snapshot";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("big-endian"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(MmapLoad, MappedFileRejectsMissingEmptyAndDirectory) {
  EXPECT_THROW(MappedFile("/nonexistent/pgch_nope.bin"), std::runtime_error);
  EXPECT_THROW(MappedFile(temp_path("")), std::runtime_error);  // a directory
  const auto empty = temp_path("pgch_mmap_empty.bin");
  std::ofstream(empty, std::ios::binary).close();
  EXPECT_THROW((void)MappedFile{empty}, std::runtime_error);
  std::remove(empty.c_str());
}

// ------------------------------------------------ verification policy --

TEST(MmapLoad, ChecksumVerifiesOncePerFileUntilItChanges) {
  const CsrGraph g = test_graph(131);
  const auto path = temp_path("pgch_mmap_once.bin");
  save_binary(g, path);

  EXPECT_EQ(load_binary_mmap(path), g);  // first load verifies + caches

  // Corrupt a payload byte, then restore the file's timestamps so its
  // identity (device, inode, size, mtime) matches the cached verdict.
  struct ::stat st {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  const auto dst_off = snapshot_info(path)->dst_off;
  flip_byte(path, dst_off + 21);
  const struct ::timespec times[2] = {st.st_atim, st.st_mtim};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);

  // Cache hit: the (undetectably) modified file loads without re-reading
  // every byte — that skip is the documented policy, not a bug.
  EXPECT_NO_THROW((void)load_binary_mmap(path));

  // A visible modification (mtime moved) re-verifies and catches it.
  const struct ::timespec now[2] = {{0, UTIME_NOW}, {0, UTIME_NOW}};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), now, 0), 0);
  EXPECT_THROW(load_binary_mmap(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------- mapping lifetime --

TEST(MmapLoad, MappingOutlivesEveryCopyOfTheGraph) {
  const CsrGraph g = test_graph(137);
  const auto path = temp_path("pgch_mmap_life.bin");
  save_binary(g, path);

  std::optional<CsrGraph> original(load_binary_mmap(path));
  const CsrGraph copy = *original;  // O(1): shares spans + storage handle
  EXPECT_EQ(copy.dst_array().data(), original->dst_array().data());

  // Deleting the file does not invalidate the mapping (POSIX keeps the
  // inode alive), and destroying the original graph does not unmap while
  // a copy still points in.
  std::remove(path.c_str());
  original.reset();
  EXPECT_EQ(copy, g);
  EXPECT_EQ(copy.checksum(), g.checksum());
}

TEST(MmapLoad, LocalizedViewOverMappingCopiesNothing) {
  const CsrGraph g = test_graph(139);
  const auto path = temp_path("pgch_mmap_local.bin");
  save_binary(g, path);
  const CsrGraph mapped = load_binary_mmap(path);

  const DistributedGraph dg(mapped, hash_partition(mapped.num_vertices(), 2));
  const DistributedGraph local = dg.localized(0);
  EXPECT_TRUE(local.is_localized());
  EXPECT_EQ(local.local_rank(), 0);
  // Zero-copy: the localized view's CSR serves the SAME mapped bytes.
  EXPECT_EQ(local.csr().dst_array().data(), mapped.dst_array().data());
  // The rank guard still holds: other ranks' adjacency is refused.
  EXPECT_THROW((void)local.out(1, 0), std::logic_error);
  // And rank 0's adjacency matches the shared view's.
  for (std::uint32_t l = 0; l < local.num_local(0); ++l) {
    const auto a = local.out(0, l);
    const auto b = dg.out(0, l);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].dst, b[i].dst);
      EXPECT_EQ(a[i].weight, b[i].weight);
    }
  }
  std::remove(path.c_str());
}

// ------------------------------------- distributed parity over one map --

TEST(MmapLoad, TwoRankTcpRunOverSharedMappingMatchesOwnedBitwise) {
  constexpr int kW = 2;
  const CsrGraph g = test_graph(149, /*weighted=*/false);
  const auto path = temp_path("pgch_mmap_tcp.bin");
  save_binary(g, path);

  const auto configure = [](algo::PageRankCombined& w) { w.iterations = 5; };
  const auto run_world = [&](const CsrGraph& csr, std::vector<double>& out) {
    const DistributedGraph dg(csr, hash_partition(csr.num_vertices(), kW));
    out.assign(dg.num_vertices(), 0.0);
    auto mesh = pregel::testing::make_mesh(kW);
    WorkerTeam::run(kW, [&](int rank) {
      core::launch_distributed<algo::PageRankCombined>(
          dg, *mesh[static_cast<std::size_t>(rank)], rank, configure,
          [&](algo::PageRankCombined& w, int) {
            w.for_each_vertex(
                [&](const auto& v) { out[v.id()] = v.value().rank; });
          });
    });
  };

  // Both ranks localize from ONE shared mapping (the page-cache-sharing
  // deployment shape) vs both ranks localizing from the owned in-memory
  // graph that was saved (localized() copies each rank's slice).
  std::vector<double> via_mmap, via_owned;
  run_world(load_binary_mmap(path), via_mmap);
  run_world(g, via_owned);

  ASSERT_EQ(via_mmap.size(), via_owned.size());
  for (std::size_t i = 0; i < via_owned.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(via_mmap[i]),
              std::bit_cast<std::uint64_t>(via_owned[i]));
  }
  std::remove(path.c_str());
}

}  // namespace
