#pragma once
// Graph I/O: plain edge-list text files and the binary CSR snapshot.
// Stands in for the paper's HDFS input layer (DESIGN.md section 1); the
// storage backend is orthogonal to everything the evaluation measures.
//
// The snapshot (format spec: DESIGN.md section 5) is the CsrGraph's three
// arrays written raw behind a checksummed little-endian header, each
// array at a 64-byte-aligned file offset recorded in the header (format
// v3, the only readable one). There is one loader: `load_binary_mmap()`
// maps the file (runtime::MappedFile) and returns a CsrGraph whose spans
// point straight into the page cache — load time is a few page faults,
// and W ranks on one host share one physical copy. `load_any()` sniffs
// the magic on a single open descriptor and either maps the snapshot or
// hands the file to the text parser, so every example and bench accepts
// both through one entry point. `tools/graph_convert` turns edge lists
// into snapshots.

#include <cstdint>
#include <optional>
#include <string>

#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace pregel::graph {

/// Text format: first line "num_vertices [weighted]", then one edge per
/// line: "src dst [weight]". Lines starting with '#' are comments.
void save_edge_list(const Graph& g, const std::string& path,
                    bool weighted = false);
Graph load_edge_list(const std::string& path);

/// Tolerant text loader for SNAP-style downloads: accepts the header
/// format above, or a headerless "src dst [weight]" list ('#' comments
/// allowed anywhere) whose vertex count is inferred as max id + 1. A
/// first data line with one token (or "n weighted") is read as a header;
/// a first data line with two-plus numeric tokens is read as an edge.
Graph load_edge_list_auto(const std::string& path);

/// Binary CSR snapshot (little-endian, versioned, checksummed header +
/// raw offset/dst/weight arrays at 64-byte-aligned offsets — format v3).
void save_binary(const CsrGraph& g, const std::string& path);
void save_binary(const Graph& g, const std::string& path);

/// Zero-copy load of a v3 snapshot: maps the file and returns a CsrGraph
/// whose arrays are spans into the mapping (the mapping stays alive as
/// long as the graph or any copy of it). Validates the magic (naming
/// byte-swapped files), version (naming the retired v1 and v2 formats),
/// flags, array layout and exact file size, and throws std::runtime_error
/// on any mismatch.
///
/// Checksum policy: the payload checksum (and the O(V+E) CSR invariant
/// scan) runs on the FIRST load of a given file per process and the
/// verdict is cached by (device, inode, size, mtime), so hot restarts of
/// the same snapshot are O(1). There is no opt-out.
CsrGraph load_binary_mmap(const std::string& path);

/// Load a snapshot or a text edge list through one open(2): the magic is
/// sniffed from the descriptor, which is then either mapped (snapshots,
/// exactly as load_binary_mmap) or handed to the text parser.
CsrGraph load_any(const std::string& path);

/// Snapshot header introspection (graph_convert --stats): the format
/// version and where each array sits in the file. nullopt when the file
/// is not a snapshot.
struct SnapshotInfo {
  std::uint32_t version = 0;
  bool weighted = false;
  std::uint32_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t checksum = 0;
  std::uint64_t offsets_off = 0;
  std::uint64_t dst_off = 0;
  std::uint64_t weights_off = 0;  ///< 0 when unweighted
};
std::optional<SnapshotInfo> snapshot_info(const std::string& path);

}  // namespace pregel::graph
