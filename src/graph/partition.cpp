#include "graph/partition.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <random>
#include <span>
#include <stdexcept>

namespace pregel::graph {

namespace {

void build_members(Partition& p) {
  const auto n = static_cast<VertexId>(p.owner.size());
  p.local_of.assign(n, 0);
  p.members.assign(static_cast<std::size_t>(p.num_workers), {});
  for (VertexId v = 0; v < n; ++v) {
    auto& m = p.members[static_cast<std::size_t>(p.owner[v])];
    p.local_of[v] = static_cast<std::uint32_t>(m.size());
    m.push_back(v);
  }
}

}  // namespace

double Partition::edge_cut(const CsrGraph& g) const {
  if (g.num_edges() == 0) return 0.0;
  std::uint64_t cut = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId v : g.neighbors(u)) {
      if (owner[u] != owner[v]) ++cut;
    }
  }
  return static_cast<double>(cut) / static_cast<double>(g.num_edges());
}

double Partition::edge_cut(const Graph& g) const {
  if (g.num_edges() == 0) return 0.0;
  std::uint64_t cut = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const Edge& e : g.out(u)) {
      if (owner[u] != owner[e.dst]) ++cut;
    }
  }
  return static_cast<double>(cut) / static_cast<double>(g.num_edges());
}

Partition hash_partition(VertexId n, int num_workers) {
  if (num_workers <= 0) throw std::invalid_argument("bad worker count");
  Partition p;
  p.num_workers = num_workers;
  p.owner.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    p.owner[v] = static_cast<int>(v % static_cast<VertexId>(num_workers));
  }
  build_members(p);
  return p;
}

Partition range_partition(VertexId n, int num_workers) {
  if (num_workers <= 0) throw std::invalid_argument("bad worker count");
  Partition p;
  p.num_workers = num_workers;
  p.owner.resize(n);
  const auto w = static_cast<std::uint64_t>(num_workers);
  for (VertexId v = 0; v < n; ++v) {
    p.owner[v] = static_cast<int>(static_cast<std::uint64_t>(v) * w / n);
  }
  build_members(p);
  return p;
}

Partition make_partition(const CsrGraph& g, int num_workers,
                         PartitionKind kind) {
  switch (kind) {
    case PartitionKind::kRange:
      return range_partition(g.num_vertices(), num_workers);
    case PartitionKind::kHash:
      break;
  }
  return hash_partition(g.num_vertices(), num_workers);
}

Partition from_owner(std::vector<int> owner, int num_workers) {
  Partition p;
  p.num_workers = num_workers;
  p.owner = std::move(owner);
  for (int o : p.owner) {
    if (o < 0 || o >= num_workers) {
      throw std::invalid_argument("from_owner: rank out of range");
    }
  }
  build_members(p);
  return p;
}

Partition voronoi_partition(const Graph& g, const VoronoiOptions& opts) {
  return voronoi_partition(g.finalize(), opts);
}

Partition voronoi_partition(const CsrGraph& g, const VoronoiOptions& opts) {
  const VertexId n = g.num_vertices();
  if (opts.num_workers <= 0) throw std::invalid_argument("bad worker count");

  // Region growing walks edges in both directions; when the input is
  // directed, build the union of the graph and its transpose as a flat
  // CSR-style neighbor table (two O(V+E) counting passes).
  std::vector<std::uint64_t> noff(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId v : g.neighbors(u)) {
      ++noff[u + 1];
      if (opts.treat_directed_as_undirected) ++noff[v + 1];
    }
  }
  for (VertexId u = 0; u < n; ++u) noff[u + 1] += noff[u];
  std::vector<VertexId> ndst(noff[n]);
  {
    std::vector<std::uint64_t> cursor(noff.begin(), noff.end() - 1);
    for (VertexId u = 0; u < n; ++u) {
      for (const VertexId v : g.neighbors(u)) {
        ndst[cursor[u]++] = v;
        if (opts.treat_directed_as_undirected) ndst[cursor[v]++] = u;
      }
    }
  }
  const auto nbr = [&](VertexId u) {
    return std::span<const VertexId>(ndst.data() + noff[u],
                                     static_cast<std::size_t>(noff[u + 1] - noff[u]));
  };

  std::uint32_t target = opts.target_block_size;
  if (target == 0) {
    target = std::max<std::uint32_t>(
        1, n / (static_cast<std::uint32_t>(opts.num_workers) * 8));
  }

  std::mt19937_64 rng(opts.seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<std::uint32_t> block(n, kNoBlock);
  std::vector<std::uint32_t> block_size;

  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});
  std::shuffle(order.begin(), order.end(), rng);

  // Multi-source BFS: each unassigned vertex (in random order) seeds a new
  // region which grows breadth-first until it reaches the target size.
  std::queue<VertexId> frontier;
  for (VertexId seed : order) {
    if (block[seed] != kNoBlock) continue;
    const auto b = static_cast<std::uint32_t>(block_size.size());
    block_size.push_back(0);
    block[seed] = b;
    frontier.push(seed);
    while (!frontier.empty() && block_size[b] < target) {
      const VertexId u = frontier.front();
      frontier.pop();
      ++block_size[b];
      for (VertexId v : nbr(u)) {
        if (block[v] == kNoBlock) {
          block[v] = b;
          frontier.push(v);
        }
      }
    }
    // Region reached its size cap: un-assign anything still queued so a
    // later seed can claim it.
    while (!frontier.empty()) {
      block[frontier.front()] = kNoBlock;
      frontier.pop();
    }
  }

  // Longest-processing-time assignment of blocks to workers.
  const auto num_blocks = static_cast<std::uint32_t>(block_size.size());
  std::vector<std::uint32_t> block_order(num_blocks);
  std::iota(block_order.begin(), block_order.end(), 0u);
  std::sort(block_order.begin(), block_order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return block_size[a] > block_size[b];
            });
  std::vector<std::uint64_t> load(static_cast<std::size_t>(opts.num_workers),
                                  0);
  std::vector<int> block_owner(num_blocks, 0);
  for (std::uint32_t b : block_order) {
    const auto lightest = static_cast<int>(
        std::min_element(load.begin(), load.end()) - load.begin());
    block_owner[b] = lightest;
    load[static_cast<std::size_t>(lightest)] += block_size[b];
  }

  Partition p;
  p.num_workers = opts.num_workers;
  p.owner.resize(n);
  p.block_of.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    p.block_of[v] = block[v];
    p.owner[v] = block_owner[block[v]];
  }
  p.num_blocks = num_blocks;
  build_members(p);
  return p;
}

}  // namespace pregel::graph
