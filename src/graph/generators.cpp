#include "graph/generators.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <random>
#include <stdexcept>

namespace pregel::graph {

namespace {

std::mt19937_64 make_rng(std::uint64_t seed) {
  // Scramble so that nearby seeds give unrelated streams.
  return std::mt19937_64(seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
}

VertexId round_up_pow2(VertexId n) {
  if (n <= 1) return 1;
  return static_cast<VertexId>(std::bit_ceil(static_cast<std::uint32_t>(n)));
}

}  // namespace

Graph chain(VertexId n) {
  Graph g(n);
  for (VertexId i = 1; i < n; ++i) g.add_edge(i, i - 1);
  return g;
}

Graph random_tree(VertexId n, std::uint64_t seed) {
  Graph g(n);
  auto rng = make_rng(seed);
  for (VertexId i = 1; i < n; ++i) {
    std::uniform_int_distribution<VertexId> parent(0, i - 1);
    g.add_edge(i, parent(rng));
  }
  return g;
}

Graph binary_tree(VertexId n) {
  Graph g(n);
  for (VertexId i = 1; i < n; ++i) g.add_edge(i, (i - 1) / 2);
  return g;
}

Graph star(VertexId n) {
  Graph g(n);
  for (VertexId i = 1; i < n; ++i) g.add_edge(i, 0);
  return g;
}

Graph rmat(const RmatOptions& opts) {
  const double d = 1.0 - opts.a - opts.b - opts.c;
  if (d < 0.0) throw std::invalid_argument("rmat: a+b+c must be <= 1");
  if (opts.num_vertices > (1u << 31)) {
    throw std::invalid_argument("rmat: num_vertices rounds up past 2^31");
  }
  const VertexId n = round_up_pow2(opts.num_vertices);
  const int levels = std::countr_zero(static_cast<std::uint32_t>(n));

  auto rng = make_rng(opts.seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);

  // Optional random relabeling so that low ids are not hubs by construction.
  std::vector<VertexId> label(n);
  std::iota(label.begin(), label.end(), VertexId{0});
  if (opts.permute_ids) std::shuffle(label.begin(), label.end(), rng);

  Graph g(n);
  std::uniform_int_distribution<Weight> weight_dist(1, opts.max_weight);
  const double ab = opts.a + opts.b;
  const double abc = opts.a + opts.b + opts.c;
  for (std::uint64_t e = 0; e < opts.num_edges; ++e) {
    VertexId src = 0, dst = 0;
    for (int lvl = 0; lvl < levels; ++lvl) {
      const double r = uni(rng);
      src <<= 1;
      dst <<= 1;
      if (r < opts.a) {
        // top-left quadrant: no bits set
      } else if (r < ab) {
        dst |= 1;
      } else if (r < abc) {
        src |= 1;
      } else {
        src |= 1;
        dst |= 1;
      }
    }
    if (src == dst) continue;  // drop self loops
    const Weight w = opts.weighted ? weight_dist(rng) : Weight{1};
    g.add_edge(label[src], label[dst], w);
  }
  return g;
}

Graph rmat_undirected(const RmatOptions& opts) {
  return rmat(opts).symmetrized();
}

Graph random_undirected(VertexId n, double avg_degree, std::uint64_t seed) {
  Graph g(n);
  auto rng = make_rng(seed);
  std::uniform_int_distribution<VertexId> pick(0, n - 1);
  const auto undirected_edges =
      static_cast<std::uint64_t>(avg_degree * n / 2.0);
  for (std::uint64_t e = 0; e < undirected_edges; ++e) {
    VertexId u = pick(rng);
    VertexId v = pick(rng);
    if (u == v) continue;
    g.add_undirected_edge(u, v);
  }
  g.simplify();
  return g;
}

Graph grid_road(VertexId rows, VertexId cols, std::uint64_t extra_edges,
                std::uint64_t seed) {
  const VertexId n = rows * cols;
  Graph g(n);
  auto rng = make_rng(seed);
  std::uniform_int_distribution<Weight> weight_dist(1, 100);
  auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_undirected_edge(id(r, c), id(r, c + 1),
                                              weight_dist(rng));
      if (r + 1 < rows) g.add_undirected_edge(id(r, c), id(r + 1, c),
                                              weight_dist(rng));
    }
  }
  std::uniform_int_distribution<VertexId> pick(0, n - 1);
  for (std::uint64_t e = 0; e < extra_edges; ++e) {
    VertexId u = pick(rng);
    VertexId v = pick(rng);
    if (u == v) continue;
    g.add_undirected_edge(u, v, weight_dist(rng) + 100);  // long shortcuts
  }
  g.simplify();
  return g;
}

Graph erdos_renyi(VertexId n, std::uint64_t m, std::uint64_t seed,
                  bool directed) {
  Graph g(n);
  auto rng = make_rng(seed);
  std::uniform_int_distribution<VertexId> pick(0, n - 1);
  for (std::uint64_t e = 0; e < m; ++e) {
    VertexId u = pick(rng);
    VertexId v = pick(rng);
    if (u == v) continue;
    if (directed) {
      g.add_edge(u, v);
    } else {
      g.add_undirected_edge(u, v);
    }
  }
  g.simplify();
  return g;
}

}  // namespace pregel::graph
