#pragma once
// The benchmark's inputs: four workloads, each a graph stand-in, a
// program, and the oracle output the program must reproduce.
//
// The graph recipes are those of bench/bench_common.hpp (scaled paper
// dataset stand-ins, DESIGN.md section 1), with the generator seed
// offset by the benchmark seed (scc-wiki: see make_graph). Seed 0 gives
// exactly the legacy graphs (generator seeds 101-110), so numbers stay
// comparable with the rows in bench/BENCH_baseline.json; legacy_check.cpp
// verifies that. The engine itself only ever sees the snapshot file
// `prepare` writes.

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/scc.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "ref/reference.hpp"

namespace perfbench {

using pregel::graph::CsrGraph;
using pregel::graph::Graph;
using pregel::graph::VertexId;

enum class Program { kPageRank, kSv, kScc };

struct Workload {
  const char* name;
  Program program;
  int workers;
  bool tcp;  ///< one process per rank over loopback TCP (pgch_launch)
};

/// Order matters: it is the order a full invocation runs them in.
inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"pr-webuk", Program::kPageRank, 4, false},
      {"sv-twitter", Program::kSv, 4, false},
      {"scc-wiki", Program::kScc, 4, false},
      {"pr-wiki-tcp", Program::kPageRank, 4, true},
  };
  return all;
}

inline const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Iterations of both PageRank workloads (the paper's 30).
inline constexpr int kPageRankIterations = 30;

/// A generator seed of the legacy stand-ins, moved by the benchmark seed.
inline std::uint64_t generator_seed(std::uint64_t legacy, std::uint64_t seed) {
  return legacy + 1000 * seed;
}

inline std::uint32_t scaled(std::uint32_t base, int shift) {
  return shift >= 0 ? base << shift : base >> (-shift);
}

/// The workload's graph, as the oracle reads it.
inline Graph make_graph(const Workload& w, std::uint64_t seed, int shift) {
  using pregel::graph::rmat;
  const std::string name = w.name;
  if (name == "pr-webuk") {
    return rmat({.num_vertices = scaled(1u << 18, shift),
                 .num_edges = scaled(16u << 18, shift),
                 .seed = generator_seed(102, seed)});
  }
  if (name == "pr-wiki-tcp") {
    return rmat({.num_vertices = scaled(1u << 17, shift),
                 .num_edges = scaled(10u << 17, shift),
                 .seed = generator_seed(101, seed)});
  }
  if (name == "sv-twitter") {
    return pregel::graph::rmat_undirected(
        {.num_vertices = scaled(1u << 16, shift),
         .num_edges = scaled(24u << 16, shift),
         .seed = generator_seed(104, seed)});
  }
  if (name == "scc-wiki") {
    // bench_common.hpp's wikipedia_scc_graph(): R-MAT plus disjoint
    // directed cycles, so label waves take ~cycle-length supersteps.
    //
    // The seed only permutes which id block each cycle takes: the ids and
    // the oracle's labels change, the graph's shape does not, so every
    // seed sends the same messages in the same supersteps. Redrawing the
    // R-MAT core or the cycles' entry points changes how many labels the
    // Min-Label waves send: msg_bytes then varies by 3-5% (interquartile
    // range over median, seeds 0-9), more than its 2% bound.
    const VertexId core_n = scaled(1u << 16, shift);
    constexpr std::uint32_t kCycleLen = 192;
    const VertexId cycle_n = scaled(1u << 15, shift);
    Graph g = rmat({.num_vertices = core_n,
                    .num_edges = scaled(6u << 16, shift),
                    .seed = 108});
    std::vector<VertexId> blocks;
    for (VertexId start = 0; start + kCycleLen <= cycle_n;
         start += kCycleLen) {
      blocks.push_back(core_n + start);
    }
    if (seed != 0) {
      std::mt19937_64 shuffle_rng(generator_seed(109, seed));
      std::shuffle(blocks.begin(), blocks.end(), shuffle_rng);
    }
    std::mt19937_64 rng(109);
    std::uniform_int_distribution<VertexId> core_pick(0, core_n - 1);
    for (VertexId i = 0; i < cycle_n; ++i) g.add_vertex();
    for (const VertexId first : blocks) {
      for (std::uint32_t i = 0; i < kCycleLen; ++i) {
        g.add_edge(first + i, first + (i + 1) % kCycleLen);
      }
      g.add_edge(core_pick(rng), first);
    }
    return g;
  }
  throw std::invalid_argument("no input recipe for '" + name + "'");
}

/// The graph the engine runs on: the workload's graph, except for SCC,
/// whose program reads the bidirected encoding of the directed graph.
inline CsrGraph engine_graph(const Workload& w, const Graph& g) {
  return w.program == Program::kScc ? pregel::algo::make_bidirected(g).finalize()
                                    : g.finalize();
}

/// The oracle output as raw bytes: PageRank scores (double) or
/// component labels (VertexId), one per vertex.
inline std::vector<unsigned char> oracle_bytes(const Workload& w,
                                               const Graph& g) {
  const auto raw = [](const auto& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(v.data());
    return std::vector<unsigned char>(p, p + v.size() * sizeof(v[0]));
  };
  switch (w.program) {
    case Program::kPageRank:
      return raw(pregel::ref::pagerank(g, kPageRankIterations));
    case Program::kSv:
      return raw(pregel::ref::connected_components(g));
    case Program::kScc:
      return raw(pregel::ref::strongly_connected_components(g));
  }
  throw std::logic_error("oracle_bytes: unknown program");
}

}  // namespace perfbench
