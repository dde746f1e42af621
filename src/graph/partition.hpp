#pragma once
// Partitioners: map vertices to workers (and, optionally, to locality
// blocks). `hash_partition` is the default Pregel placement; `voronoi`
// is the METIS substitute used for the paper's "Wikipedia (P)" rows (see
// DESIGN.md section 1) and also supplies Blogel's blocks.

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"

namespace pregel::graph {

inline constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;

/// Assignment of every vertex to a worker (and optionally a block).
struct Partition {
  int num_workers = 1;
  std::vector<int> owner;        ///< global id -> worker rank
  std::vector<std::uint32_t> local_of;  ///< global id -> local index
  std::vector<std::vector<VertexId>> members;  ///< rank -> global ids
  std::vector<std::uint32_t> block_of;  ///< global id -> block (or kNoBlock)
  std::uint32_t num_blocks = 0;

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(owner.size());
  }

  /// Fraction of edges whose endpoints live on different workers.
  [[nodiscard]] double edge_cut(const CsrGraph& g) const;
  [[nodiscard]] double edge_cut(const Graph& g) const;
};

/// owner(v) = v mod W — the random-ish placement every Pregel paper
/// defaults to ("vertices are randomly assigned to workers").
Partition hash_partition(VertexId n, int num_workers);

/// Contiguous ranges of ids per worker.
Partition range_partition(VertexId n, int num_workers);

/// Which partitioner make_partition builds.
enum class PartitionKind { kRange, kHash };

/// Build the selected partition over `g`.
Partition make_partition(const CsrGraph& g, int num_workers,
                         PartitionKind kind);

/// Build the derived fields from an explicit owner array.
Partition from_owner(std::vector<int> owner, int num_workers);

struct VoronoiOptions {
  int num_workers = 4;
  /// Target vertices per block; ~8 blocks per worker by default when 0.
  std::uint32_t target_block_size = 0;
  std::uint64_t seed = 1;
  /// Edges are traversed in both directions while growing regions.
  bool treat_directed_as_undirected = true;
};

/// Graph-Voronoi locality partitioner (the mechanism Blogel itself uses):
/// random seeds grow BFS regions in rounds; leftover vertices become fresh
/// seeds. Produces connected blocks with a small edge-cut, then assigns
/// blocks to workers by size (longest-processing-time bin packing).
/// This is our stand-in for METIS: what the experiments need from METIS is
/// only that most edges become worker-local. The CSR overload is the
/// implementation; the builder overload finalizes first.
Partition voronoi_partition(const CsrGraph& g, const VoronoiOptions& opts);
Partition voronoi_partition(const Graph& g, const VoronoiOptions& opts);

}  // namespace pregel::graph
