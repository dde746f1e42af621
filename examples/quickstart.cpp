// Quickstart: the paper's Fig. 1 PageRank, end to end.
//
// Demonstrates the core workflow of the channel library:
//   1. build (or load) a graph,
//   2. partition it across workers,
//   3. write a Worker subclass whose channels are member objects,
//   4. launch() and collect per-vertex results.
//
// Usage: quickstart [num_vertices | graph_path] [num_workers]
// (graph_path: edge-list text or binary snapshot, see tools/graph_convert)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <utility>
#include <vector>

#include "core/pregel_channel.hpp"
#include "example_common.hpp"
#include "graph/distributed.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

using namespace pregel;
using namespace pregel::core;

// ---------------------------------------------------------------------------
// The vertex value and the worker — a direct transcription of Fig. 1.
// ---------------------------------------------------------------------------

struct PRValue {
  double page_rank = 0.0;
};
using VertexT = Vertex<PRValue>;

class PageRankWorker : public Worker<VertexT> {
 public:
  void compute(VertexT& v) override {
    const double n = static_cast<double>(get_vnum());
    if (step_num() == 1) {
      v.value().page_rank = 1.0 / n;
    } else {
      // s: the rank mass parked on the "sink node" for dead ends.
      const double s = agg_.result() / n;
      v.value().page_rank = 0.15 / n + 0.85 * (msg_.get_message() + s);
    }
    if (step_num() < 31) {
      const auto edges = v.edges();
      if (!edges.empty()) {
        const double share =
            v.value().page_rank / static_cast<double>(edges.size());
        for (const auto& e : edges) msg_.send_message(e.dst, share);
      } else {
        agg_.add(v.value().page_rank);
      }
    } else {
      v.vote_to_halt();
    }
  }

 private:
  // The two channels of Fig. 1. Swapping `CombinedMessage` for
  // `ScatterCombine` (plus add_edge/set_message) is the whole Section
  // III-B optimization — see examples in src/algorithms/pagerank.hpp.
  CombinedMessage<VertexT, double> msg_{this, make_combiner(c_sum, 0.0)};
  Aggregator<VertexT, double> agg_{this, make_combiner(c_sum, 0.0)};
};

int main(int argc, char** argv) {
  // Dataset-path mode loads straight into the CSR form (a snapshot needs
  // no builder round-trip — this example runs no builder operations).
  const bool from_file = argc > 1 && !examples::numeric(argv[1]);
  const auto n = static_cast<graph::VertexId>(
      from_file ? 0
                : examples::int_arg(argc, argv, 1, "num_vertices", 1,
                                    examples::kMaxVertices, 100'000));
  const int workers = examples::num_workers_arg(argc, argv, 2, 4);

  // A skewed web-like graph, or the dataset named on the command line.
  const graph::CsrGraph g =
      from_file ? graph::load_any(argv[1])
                : graph::rmat({.num_vertices = n,
                               .num_edges = std::uint64_t{8} * n,
                               .seed = 42})
                      .finalize();
  const graph::DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), workers));

  std::vector<double> ranks(g.num_vertices(), 0.0);
  const auto stats = launch<PageRankWorker>(
      dg, /*configure=*/nullptr,
      /*collect=*/[&](const PageRankWorker& w, int) {
        w.for_each_vertex(
            [&](const VertexT& v) { ranks[v.id()] = v.value().page_rank; });
      });

  std::printf("PageRank over %u vertices / %llu edges on %d workers\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()), workers);
  std::printf("  %s\n", stats.summary().c_str());

  // Report the top pages (up to five — tiny datasets have fewer).
  const int top = static_cast<int>(std::min<std::size_t>(5, ranks.size()));
  std::vector<graph::VertexId> order(g.num_vertices());
  std::iota(order.begin(), order.end(), graph::VertexId{0});
  std::partial_sort(order.begin(), order.begin() + top, order.end(),
                    [&](auto a, auto b) { return ranks[a] > ranks[b]; });
  std::printf("  top pages:");
  for (int i = 0; i < top; ++i) {
    std::printf("  v%u=%.3e", order[static_cast<std::size_t>(i)],
                ranks[order[static_cast<std::size_t>(i)]]);
  }
  std::printf("\n  total mass: %.6f (should be ~1)\n",
              std::accumulate(ranks.begin(), ranks.end(), 0.0));
  return 0;
}
