// Road-network shortest paths: single-source shortest paths on a weighted
// road-like mesh (the paper's USA-road scenario), using the min-combined
// message channel, with a comparison against sequential Dijkstra.
//
// Usage: sssp_roadnet [grid_side | graph_path] [num_workers] [source]
// (graph_path: weighted edge-list text or binary snapshot; used as-is)

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "algorithms/runner.hpp"
#include "algorithms/sssp.hpp"
#include "example_common.hpp"
#include "graph/distributed.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "ref/reference.hpp"

using namespace pregel;

int main(int argc, char** argv) {
  auto loaded = examples::graph_arg(argc, argv);
  // side * side vertices must fit a 32-bit vertex id.
  const auto side = static_cast<graph::VertexId>(
      loaded ? 0
             : examples::int_arg(argc, argv, 1, "grid_side", 1, 65535, 250));
  const int workers = examples::num_workers_arg(argc, argv, 2, 4);

  // Weighted mesh plus long-haul shortcuts: a synthetic road network — or
  // the (weighted) dataset named on the command line.
  const graph::Graph g = loaded ? std::move(*loaded)
                                : graph::grid_road(side, side, side * 10, 7);
  const auto source = static_cast<graph::VertexId>(examples::int_arg(
      argc, argv, 3, "source", 0, g.num_vertices() - 1LL, 0));
  const graph::DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), workers));

  std::vector<std::uint64_t> dist;
  const auto stats = algo::run_collect<algo::Sssp>(
      dg, dist, [](const algo::SsspVertex& v) { return v.value().dist; },
      [source](algo::Sssp& w) { w.source = source; });

  std::printf("SSSP over %u vertices / %llu edges on %d workers\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()), workers);
  std::printf("  %s\n", stats.summary().c_str());

  // Verify against Dijkstra and print a few distances.
  const auto expect = ref::sssp(g, source);
  std::size_t mismatches = 0;
  std::uint64_t reachable = 0, farthest = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (dist[v] != expect[v]) ++mismatches;
    if (dist[v] != graph::kInfWeight) {
      ++reachable;
      farthest = std::max(farthest, dist[v]);
    }
  }
  std::printf("  reachable: %llu vertices, eccentricity(src)=%llu\n",
              static_cast<unsigned long long>(reachable),
              static_cast<unsigned long long>(farthest));
  std::printf("  verification vs Dijkstra: %zu mismatches %s\n", mismatches,
              mismatches == 0 ? "(OK)" : "(FAILED)");
  return mismatches == 0 ? 0 : 1;
}
