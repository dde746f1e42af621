#pragma once
// PageRank on the channel engine — the paper's running example.
//
// PageRankCombined is a line-for-line port of the paper's Fig. 1: a
// CombinedMessage channel carries rank shares, an Aggregator collects the
// rank mass stuck in dead ends and redistributes it. PageRankScatter is
// the Section III-B variant: the same program with the message channel
// swapped for a ScatterCombine channel (the "five lines of code" change).

#include <cstdint>

#include "core/pregel_channel.hpp"

namespace pregel::algo {

using namespace pregel::core;

struct PRValue {
  double rank = 0.0;
};

using PRVertex = Vertex<PRValue>;

namespace detail {
inline Combiner<double> sum_combiner() { return make_combiner(c_sum, 0.0); }
}  // namespace detail

/// Fig. 1: CombinedMessage + Aggregator.
class PageRankCombined : public Worker<PRVertex> {
 public:
  /// Number of rank-update iterations (paper: 30).
  int iterations = 30;

  void compute(PRVertex& v) override {
    const double n = static_cast<double>(get_vnum());
    if (step_num() == 1) {
      v.value().rank = 1.0 / n;
    } else {
      const double s = agg_.result() / n;  // dead-end mass per vertex
      v.value().rank = 0.15 / n + 0.85 * (msg_.get_message() + s);
    }
    if (step_num() <= iterations) {
      const auto edges = v.edges();
      if (!edges.empty()) {
        // One value per vertex, every out-edge carries it: publish()
        // stands for the paper's per-edge send loop, which the channel
        // expands at serialize time.
        msg_.publish(v.value().rank / static_cast<double>(edges.size()));
      } else {
        agg_.add(v.value().rank);
      }
    } else {
      v.vote_to_halt();
    }
  }

 private:
  CombinedMessage<PRVertex, double> msg_{
      this, detail::sum_combiner(),
      [](const double& share, graph::Weight) { return share; }, "pr"};
  Aggregator<PRVertex, double> agg_{this, detail::sum_combiner(), "sink"};
};

/// Section III-B: the scatter-combine channel exploits PageRank's static
/// messaging pattern (every vertex scatters every superstep).
class PageRankScatter : public Worker<PRVertex> {
 public:
  int iterations = 30;

  void compute(PRVertex& v) override {
    const double n = static_cast<double>(get_vnum());
    if (step_num() == 1) {
      v.value().rank = 1.0 / n;
      for (const auto& e : v.edges()) msg_.add_edge(e.dst);
    } else {
      const double s = agg_.result() / n;
      v.value().rank = 0.15 / n + 0.85 * (msg_.get_message() + s);
    }
    if (step_num() <= iterations) {
      const auto edges = v.edges();
      if (!edges.empty()) {
        msg_.set_message(v.value().rank /
                         static_cast<double>(edges.size()));
      } else {
        agg_.add(v.value().rank);
      }
    } else {
      v.vote_to_halt();
    }
  }

 private:
  ScatterCombine<PRVertex, double> msg_{this, detail::sum_combiner(), "pr"};
  Aggregator<PRVertex, double> agg_{this, detail::sum_combiner(), "sink"};
};

}  // namespace pregel::algo
