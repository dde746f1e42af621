#pragma once
// Weakly connected components (the HCC algorithm, Section V-B3): every
// vertex repeatedly adopts the minimum component label seen among its
// neighbors; at convergence each component is labelled by its smallest
// vertex id.
//
// Input convention: the graph passed to the engine must already contain
// both directions of every edge (symmetrize first) — the same
// preprocessing the paper applies to run HCC on a directed graph.
//
// WccBasic converges in O(diameter) supersteps; WccPropagation delegates
// the whole fixpoint to a Propagation channel, which runs worker-local
// label spreading inside one superstep's communication phase and thus
// profits from locality-aware partitioning (the "Wikipedia (P)" rows).

#include <cstdint>

#include "core/pregel_channel.hpp"

namespace pregel::algo {

using namespace pregel::core;

struct WccValue {
  VertexId label = graph::kInvalidVertex;
};

using WccVertex = Vertex<WccValue>;

/// Hash-min over a CombinedMessage channel.
class WccBasic : public Worker<WccVertex> {
 public:
  void compute(WccVertex& v) override {
    bool changed = false;
    if (step_num() == 1) {
      v.value().label = v.id();
      changed = true;
    } else {
      const VertexId m = msg_.get_message();
      if (m < v.value().label) {
        v.value().label = m;
        changed = true;
      }
    }
    // Every out-edge carries the label unchanged: the identity transform.
    if (changed) msg_.publish(v.value().label);
    v.vote_to_halt();
  }

 private:
  CombinedMessage<WccVertex, VertexId> msg_{
      this, make_combiner(c_min, graph::kInvalidVertex),
      [](const VertexId& label, graph::Weight) { return label; }, "label"};
};

/// The same algorithm with the min-label fixpoint run by the Propagation
/// channel: two supersteps total, independent of graph diameter.
class WccPropagation : public Worker<WccVertex> {
 public:
  void compute(WccVertex& v) override {
    if (step_num() == 1) {
      for (const auto& e : v.edges()) prop_.add_edge(e.dst);
      prop_.set_value(v.id());
      return;  // stay active to read the converged value next superstep
    }
    v.value().label = prop_.get_value();
    v.vote_to_halt();
  }

 private:
  Propagation<WccVertex, VertexId> prop_{
      this, make_combiner(c_min, graph::kInvalidVertex), "label"};
};

}  // namespace pregel::algo
