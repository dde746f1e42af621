#pragma once
// Single-source shortest paths on the channel engine: the classic Pregel
// SSSP (min-combined distance relaxation with voting-to-halt). One of the
// paper's motivating "simple kernel" algorithms; also the quickstart for
// weighted graphs.

#include <cstdint>

#include "core/pregel_channel.hpp"

namespace pregel::algo {

using namespace pregel::core;

struct SsspValue {
  std::uint64_t dist = graph::kInfWeight;
};

using SsspVertex = Vertex<SsspValue>;

class Sssp : public Worker<SsspVertex> {
 public:
  VertexId source = 0;

  void compute(SsspVertex& v) override {
    bool improved = false;
    if (step_num() == 1) {
      v.value().dist = (v.id() == source) ? 0 : graph::kInfWeight;
      improved = (v.id() == source);
    } else {
      const std::uint64_t m = msg_.get_message();
      if (m < v.value().dist) {
        v.value().dist = m;
        improved = true;
      }
    }
    if (improved) {
      // f(dist, w) = dist + w: the channel expands this per out-edge at
      // serialize time.
      msg_.publish(v.value().dist);
    }
    v.vote_to_halt();  // re-activated by incoming distance offers
  }

 private:
  CombinedMessage<SsspVertex, std::uint64_t> msg_{
      this,
      make_combiner(c_min, std::uint64_t{graph::kInfWeight}),
      [](const std::uint64_t& dist, graph::Weight w) { return dist + w; },
      "dist"};
};

/// SSSP on the propagation channel with Fig. 7's per-edge f
/// (f = dist + w, h = min): the whole label-correcting relaxation runs to
/// a global fixpoint inside superstep 1's communication phase, so the
/// algorithm needs two supersteps regardless of graph diameter — the
/// propagation-channel story applied to a weighted problem.
class SsspPropagation : public Worker<SsspVertex> {
 public:
  VertexId source = 0;

  void compute(SsspVertex& v) override {
    if (step_num() == 1) {
      for (const auto& e : v.edges()) prop_.add_edge(e.dst, e.weight);
      if (v.id() == source) prop_.set_value(0);
      return;  // stay active to read the converged distance
    }
    v.value().dist = prop_.get_value();
    v.vote_to_halt();
  }

 private:
  Propagation<SsspVertex, std::uint64_t> prop_{
      this,
      make_combiner(c_min, std::uint64_t{graph::kInfWeight}),
      [](const std::uint64_t& dist, graph::Weight w) { return dist + w; },
      "dist"};
};

}  // namespace pregel::algo
