// Strongly connected components of a web-like graph with the Min-Label
// algorithm, with and without the Propagation channel (the paper's Table
// VII scenario), verified against Tarjan.
//
// Usage: scc_webgraph [num_vertices | graph_path] [num_workers]
// (graph_path: edge-list text or binary snapshot, see tools/graph_convert)

#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <utility>

#include "algorithms/runner.hpp"
#include "algorithms/scc.hpp"
#include "example_common.hpp"
#include "graph/distributed.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "ref/reference.hpp"

using namespace pregel;

namespace {

template <typename WorkerT>
void run_variant(const char* name, const graph::DistributedGraph& dg,
                 const std::vector<graph::VertexId>& expect) {
  std::vector<graph::VertexId> scc;
  const auto stats = algo::run_collect<WorkerT>(
      dg, scc, [](const algo::SccVertex& v) { return v.value().scc; });
  std::size_t mismatches = 0;
  for (graph::VertexId v = 0; v < expect.size(); ++v) {
    if (scc[v] != expect[v]) ++mismatches;
  }
  std::printf("  %-24s %8.3f s  %9.2f MB  %4d supersteps  %s\n", name,
              stats.seconds, stats.message_mb(), stats.supersteps,
              mismatches == 0 ? "OK" : "WRONG");
}

}  // namespace

int main(int argc, char** argv) {
  auto loaded = examples::graph_arg(argc, argv);
  const auto n = static_cast<graph::VertexId>(
      loaded ? 0
             : examples::int_arg(argc, argv, 1, "num_vertices", 1,
                                 examples::kMaxVertices, 60'000));
  const int workers = examples::num_workers_arg(argc, argv, 2, 4);

  // Web-like digraph: skewed in/out degrees, a large central SCC and many
  // small/trivial ones — the structure Min-Label exploits. A dataset named
  // on the command line is used as-is (directed).
  const graph::Graph g =
      loaded ? std::move(*loaded)
             : graph::rmat({.num_vertices = n,
                            .num_edges = std::uint64_t{6} * n,
                            .seed = 5});
  const graph::Graph bi = algo::make_bidirected(g);
  const graph::DistributedGraph dg(
      bi, graph::hash_partition(bi.num_vertices(), workers));

  const auto expect = ref::strongly_connected_components(g);
  std::unordered_map<graph::VertexId, std::size_t> sizes;
  for (const auto c : expect) ++sizes[c];
  std::size_t largest = 0;
  for (const auto& [c, s] : sizes) largest = std::max(largest, s);

  std::printf(
      "Min-Label SCC over %u vertices / %llu edges "
      "(%zu SCCs, largest %zu) on %d workers\n",
      g.num_vertices(), static_cast<unsigned long long>(g.num_edges()),
      sizes.size(), largest, workers);

  run_variant<algo::SccBasic>("channel (basic)", dg, expect);
  run_variant<algo::SccPropagation>("channel (propagation)", dg, expect);
  return 0;
}
