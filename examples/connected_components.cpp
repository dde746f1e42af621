// Composing optimizations: the S-V connected-components algorithm run with
// each of the four channel compositions of Table VI (basic, request-
// respond, scatter-combine, both) on the same social-network-like graph,
// printing the paper-style comparison of runtime and message volume.
//
// This is the paper's headline workflow: pick channels per communication
// pattern, compose them, and watch both time and bytes drop.
//
// Usage: connected_components [num_vertices | graph_path] [avg_degree]
//                             [num_workers]
// (graph_path: edge-list text or binary snapshot; loaded graphs are
// symmetrized, since S-V requires undirected input)

#include <cstdio>
#include <stdexcept>
#include <string>

#include "algorithms/runner.hpp"
#include "algorithms/sv.hpp"
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
  std::vector<graph::VertexId> labels;
  const auto stats = algo::run_collect<WorkerT>(
      dg, labels, [](const algo::SvVertex& v) { return v.value().d; });
  std::size_t mismatches = 0;
  for (graph::VertexId v = 0; v < expect.size(); ++v) {
    if (labels[v] != expect[v]) ++mismatches;
  }
  std::printf("  %-28s %8.3f s  %9.2f MB  %4d supersteps  %s\n", name,
              stats.seconds, stats.message_mb(), stats.supersteps,
              mismatches == 0 ? "OK" : "WRONG");
}

}  // namespace

int main(int argc, char** argv) {
  const auto loaded = examples::graph_arg(argc, argv);
  const auto n = static_cast<graph::VertexId>(
      loaded ? 0
             : examples::int_arg(argc, argv, 1, "num_vertices", 1,
                                 examples::kMaxVertices, 200'000));
  const double avg_degree =
      examples::arg_or(argc, argv, 2, 3.1, [](const char* text) {
        const double d = runtime::parse_double("avg_degree", text);
        if (d < 0.0) {
          throw std::invalid_argument("avg_degree must be >= 0, got '" +
                                      std::string(text) + "'");
        }
        return d;
      });
  const int workers = examples::num_workers_arg(argc, argv, 3, 4);

  const graph::Graph g = loaded ? loaded->symmetrized()
                                : graph::random_undirected(n, avg_degree, 11);
  const graph::DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), workers));
  const auto expect = ref::connected_components(g);

  std::printf(
      "S-V connected components over %u vertices / %llu edges "
      "(%zu components) on %d workers\n",
      g.num_vertices(), static_cast<unsigned long long>(g.num_edges()),
      ref::count_distinct(expect), workers);

  run_variant<algo::SvBasic>("channel (basic)", dg, expect);
  run_variant<algo::SvReqResp>("channel (request-respond)", dg, expect);
  run_variant<algo::SvScatter>("channel (scatter-combine)", dg, expect);
  run_variant<algo::SvBoth>("channel (both composed)", dg, expect);
  return 0;
}
