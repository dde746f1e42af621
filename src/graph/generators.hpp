#pragma once
// Synthetic graph generators standing in for the paper's datasets
// (Table III). Each generator is deterministic in its seed; DESIGN.md
// section 1 records which generator substitutes which dataset and why the
// substitution preserves the behaviour under study.

#include <cstdint>

#include "graph/graph.hpp"

namespace pregel::graph {

/// Chain 0 -> 1 -> ... -> n-1 represented as a parent-pointer forest for
/// pointer jumping: vertex i's single out-edge points to its parent i-1;
/// vertex 0 is the root (no out-edge). Matches the paper's "Chain" dataset.
Graph chain(VertexId n);

/// Uniform random recursive tree: vertex i (i>0) points to a uniformly
/// random parent in [0, i). Matches the paper's "Tree" dataset.
Graph random_tree(VertexId n, std::uint64_t seed);

/// Complete binary tree as a parent-pointer forest (tests).
Graph binary_tree(VertexId n);

/// Star: vertices 1..n-1 point to vertex 0 (worst-case request skew).
Graph star(VertexId n);

struct RmatOptions {
  VertexId num_vertices = 1u << 18;   ///< rounded up to a power of two <= 2^31
  std::uint64_t num_edges = 1u << 21;
  double a = 0.57, b = 0.19, c = 0.19;  ///< d = 1-a-b-c
  std::uint64_t seed = 1;
  bool permute_ids = true;   ///< hide generator locality
  bool weighted = false;     ///< weights uniform in [1, max_weight]
  Weight max_weight = 1000;
};

/// R-MAT power-law generator [Chakrabarti et al.]; the paper's RMAT24 uses
/// the same family. Directed; may contain duplicate edges (like the real
/// crawls it stands in for). Self loops are removed.
Graph rmat(const RmatOptions& opts);

/// Undirected R-MAT: generates directed R-MAT then symmetrizes (dedup).
Graph rmat_undirected(const RmatOptions& opts);

/// Sparse undirected graph with average degree ~avg_degree built from
/// uniformly random edges (stands in for the Facebook-like social graph).
Graph random_undirected(VertexId n, double avg_degree, std::uint64_t seed);

/// rows x cols grid with 4-neighbour connectivity, random weights, plus
/// `extra_edges` random weighted shortcuts; stands in for the USA road
/// network (large diameter, low degree, weighted).
Graph grid_road(VertexId rows, VertexId cols, std::uint64_t extra_edges,
                std::uint64_t seed);

/// Erdos-Renyi G(n, m) directed graph (tests and micro benches).
Graph erdos_renyi(VertexId n, std::uint64_t m, std::uint64_t seed,
                  bool directed = true);

}  // namespace pregel::graph
