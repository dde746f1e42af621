#pragma once
// Strongly connected components: the Min-Label algorithm of Yan et al.
// [30] — the paper's Table IV / Table VII workload and its second
// composition showcase ("a quick fix ... by choosing a Propagation channel
// for the forward/backward label propagation").
//
// Each major round on the still-unassigned ("live") subgraph:
//   1. Trivial-SCC removal: vertices whose live in-degree or live
//      out-degree is zero are singleton SCCs; removing them cascades.
//   2. Forward labelling: label_f[v] = min id that reaches v along
//      forward edges *within v's color class*.
//   3. Backward labelling: label_b[v] = the same along reverse edges.
//   4. Detection: label_f[v] == label_b[v] == L means L -> v and v -> L,
//      so v belongs to SCC(L); assign and kill those vertices. Survivors
//      take the refined color (label_f, label_b) — vertices in the same
//      SCC always share it, vertices with different pairs never do.
// Rounds repeat until every vertex is assigned. Every round assigns at
// least the minimum-id vertex of each live color class, so termination is
// guaranteed.
//
// Input convention: the *bidirected* encoding built by make_bidirected():
// for each original edge u->v the adjacency holds (v, kFwdTag) at u and
// (u, kBwdTag) at v, so every vertex sees both edge directions.
//
// SccBasic runs the label fixpoints as per-superstep message waves
// (O(diameter) supersteps each, 12-byte color-tagged messages).
// SccPropagation spends one superstep exchanging colors, prunes the
// propagation channels to same-color live edges, and lets the Propagation
// channel finish each labelling in a constant number of supersteps.
//
// Frontier (SccBasic and the Pregel+ PPScc): every vertex votes to halt
// at the top of compute(), so a superstep computes only the vertices a
// message woke — in the label waves and the trivial-removal cascade only
// a message receiver can change anything. begin_superstep() wakes every
// vertex when it enters a phase that starts work no message announces
// (scc_detail::wakes_everyone): kTrivSeed, kFwdSeed and kBwdSeed (every
// live vertex seeds), kDetect (every live vertex compares its labels),
// and the first kTrivLoop superstep (a vertex with no live neighbour in
// one direction gets no delta there, yet must be removed). Dead vertices
// are woken too and return at once; skipping them would cost a
// per-vertex pass to save little. The program keeps the team running
// through message-free supersteps with wants_next_superstep() until
// kDone, so the superstep count is that of the all-active program.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/pregel_channel.hpp"

namespace pregel::algo {

using namespace pregel::core;

inline constexpr graph::Weight kFwdTag = 0;
inline constexpr graph::Weight kBwdTag = 1;

/// Encode a directed graph so each vertex sees both edge directions,
/// tagged by the weight field. SCC needs reverse edges for the backward
/// labelling and the out-degree bookkeeping.
inline graph::Graph make_bidirected(const graph::Graph& g) {
  graph::Graph b(g.num_vertices());
  for (graph::VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const auto& e : g.out(u)) {
      b.add_edge(u, e.dst, kFwdTag);
      b.add_edge(e.dst, u, kBwdTag);
    }
  }
  return b;
}

/// Same encoding from a finalized graph (datasets, loaded snapshots).
inline graph::CsrGraph make_bidirected(const graph::CsrGraph& g) {
  graph::Graph b(g.num_vertices());
  for (graph::VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const graph::VertexId v : g.neighbors(u)) {
      b.add_edge(u, v, kFwdTag);
      b.add_edge(v, u, kBwdTag);
    }
  }
  return b.finalize();
}

struct SccValue {
  VertexId scc = graph::kInvalidVertex;  ///< assigned SCC id (min member)
  VertexId label_f = graph::kInvalidVertex;
  VertexId label_b = graph::kInvalidVertex;
  VertexId color_f = graph::kInvalidVertex;  ///< color pair: refined each
  VertexId color_b = graph::kInvalidVertex;  ///< round from (label_f,label_b)
  std::int32_t live_in = 0;   ///< live in-degree (trivial-removal phases)
  std::int32_t live_out = 0;  ///< live out-degree
  bool live = true;
};

using SccVertex = Vertex<SccValue>;

namespace scc_detail {

enum class Phase {
  kTrivSeed,   ///< live vertices announce themselves to both neighborhoods
  kTrivLoop,   ///< apply degree deltas, remove trivial SCCs, cascade
  kColorXchg,  ///< (propagation variant) advertise colors to neighbors
  kFwdSeed,    ///< start the forward labelling
  kFwdLoop,    ///< (basic variant) forward wave supersteps
  kBwdSeed,    ///< start the backward labelling
  kBwdLoop,    ///< (basic variant) backward wave supersteps
  kDetect,     ///< assign finished SCCs, refine colors
  kDone,       ///< global halt
};

/// True for the phases whose first superstep must compute every vertex
/// (see the header comment); the other phases compute message receivers
/// only.
inline bool wakes_everyone(Phase entered) {
  switch (entered) {
    case Phase::kTrivSeed:
    case Phase::kTrivLoop:
    case Phase::kFwdSeed:
    case Phase::kBwdSeed:
    case Phase::kDetect:
      return true;
    default:
      return false;
  }
}

inline Combiner<std::int32_t> sum_i32() {
  return make_combiner(c_sum, std::int32_t{0});
}
inline Combiner<std::uint64_t> sum_u64() {
  return make_combiner(c_sum, std::uint64_t{0});
}

}  // namespace scc_detail

/// Message of the basic variant's label waves: sender's color pair plus
/// the propagated label (the receiver drops mismatched colors).
struct SccLabelMsg {
  VertexId color_f = 0;
  VertexId color_b = 0;
  VertexId label = 0;
};

/// Channel-engine Min-Label with per-superstep label waves.
class SccBasic : public Worker<SccVertex> {
 public:
  using Phase = scc_detail::Phase;

  void begin_superstep() override {
    if (step_num() == 1) {
      phase_ = Phase::kTrivSeed;  // every vertex starts active
      return;
    }
    switch (phase_) {
      case Phase::kTrivSeed:
        enter(Phase::kTrivLoop);
        break;
      case Phase::kTrivLoop:
        if (act_.result() == 0) enter(Phase::kFwdSeed);
        break;
      case Phase::kFwdSeed:
        enter(Phase::kFwdLoop);
        break;
      case Phase::kFwdLoop:
        if (act_.result() == 0) enter(Phase::kBwdSeed);
        break;
      case Phase::kBwdSeed:
        enter(Phase::kBwdLoop);
        break;
      case Phase::kBwdLoop:
        if (act_.result() == 0) enter(Phase::kDetect);
        break;
      case Phase::kDetect:
        enter(alive_.result() == 0 ? Phase::kDone : Phase::kTrivSeed);
        break;
      case Phase::kDone:
      case Phase::kColorXchg:
        break;
    }
  }

  [[nodiscard]] bool wants_next_superstep() const override {
    return phase_ != Phase::kDone;
  }

  void save_program_state(runtime::Buffer& out) const override {
    out.write<Phase>(phase_);
  }
  void restore_program_state(runtime::Buffer& in) override {
    phase_ = in.read<Phase>();
  }

  void compute(SccVertex& v) override {
    v.vote_to_halt();  // a message, or the next phase change, wakes it
    auto& val = v.value();
    switch (phase_) {
      case Phase::kTrivSeed: {
        if (!val.live) return;
        val.live_in = 0;
        val.live_out = 0;
        for (const auto& e : v.edges()) {
          if (e.weight == kFwdTag) {
            cnt_in_.send_message(e.dst, 1);   // e.dst gains a live in-nbr
          } else {
            cnt_out_.send_message(e.dst, 1);  // e.dst gains a live out-nbr
          }
        }
        break;
      }
      case Phase::kTrivLoop: {
        if (!val.live) return;
        val.live_in += cnt_in_.get_message();
        val.live_out += cnt_out_.get_message();
        if (val.live_in <= 0 || val.live_out <= 0) {
          assign(val, v.id());
          for (const auto& e : v.edges()) {
            if (e.weight == kFwdTag) {
              cnt_in_.send_message(e.dst, -1);
            } else {
              cnt_out_.send_message(e.dst, -1);
            }
          }
          act_.add(1);
        }
        break;
      }
      case Phase::kFwdSeed: {
        if (!val.live) return;
        val.label_f = v.id();
        send_label(v, kFwdTag, val.label_f);
        act_.add(1);
        break;
      }
      case Phase::kFwdLoop: {
        if (!val.live) return;
        if (fold_labels(v, val.label_f)) {
          send_label(v, kFwdTag, val.label_f);
          act_.add(1);
        }
        break;
      }
      case Phase::kBwdSeed: {
        if (!val.live) return;
        val.label_b = v.id();
        send_label(v, kBwdTag, val.label_b);
        act_.add(1);
        break;
      }
      case Phase::kBwdLoop: {
        if (!val.live) return;
        if (fold_labels(v, val.label_b)) {
          send_label(v, kBwdTag, val.label_b);
          act_.add(1);
        }
        break;
      }
      case Phase::kDetect: {
        if (val.live) {
          if (val.label_f == val.label_b) {
            assign(val, val.label_f);
          } else {
            val.color_f = val.label_f;
            val.color_b = val.label_b;
            alive_.add(1);
          }
        }
        break;
      }
      case Phase::kDone:
      case Phase::kColorXchg:
        break;
    }
  }

 private:
  void enter(Phase next) {
    phase_ = next;
    if (scc_detail::wakes_everyone(next)) activate_all();
  }

  static void assign(SccValue& val, VertexId id) {
    val.scc = id;
    val.live = false;
  }

  void send_label(SccVertex& v, graph::Weight direction, VertexId label) {
    for (const auto& e : v.edges()) {
      if (e.weight == direction) {
        labels_.send_message(e.dst,
                             SccLabelMsg{v.value().color_f,
                                         v.value().color_b, label});
      }
    }
  }

  /// Fold incoming same-color labels into `mine`; true if it shrank.
  bool fold_labels(SccVertex& v, VertexId& mine) {
    bool changed = false;
    for (const auto& m : labels_.get_iterator()) {
      if (m.color_f != v.value().color_f || m.color_b != v.value().color_b) {
        continue;  // cross-color edge: can never be in the same SCC
      }
      if (m.label < mine) {
        mine = m.label;
        changed = true;
      }
    }
    return changed;
  }

  Phase phase_ = Phase::kTrivSeed;
  CombinedMessage<SccVertex, std::int32_t> cnt_in_{
      this, scc_detail::sum_i32(), "cnt_in"};
  CombinedMessage<SccVertex, std::int32_t> cnt_out_{
      this, scc_detail::sum_i32(), "cnt_out"};
  DirectMessage<SccVertex, SccLabelMsg> labels_{this, "labels"};
  Aggregator<SccVertex, std::uint64_t> act_{this, scc_detail::sum_u64(),
                                            "activity"};
  Aggregator<SccVertex, std::uint64_t> alive_{this, scc_detail::sum_u64(),
                                              "alive"};
};

/// Color advertisement of the propagation variant (sender id + color).
struct SccColorMsg {
  VertexId sender = 0;
  VertexId color_f = 0;
  VertexId color_b = 0;
};

/// Min-Label with the label fixpoints delegated to Propagation channels:
/// one superstep exchanges colors, the channels are pruned to same-color
/// live edges, then each labelling converges inside a single superstep's
/// communication phase (Table VII's "channel (prop.)" program).
class SccPropagation : public Worker<SccVertex> {
 public:
  using Phase = scc_detail::Phase;

  void begin_superstep() override {
    if (step_num() == 1) {
      phase_ = Phase::kTrivSeed;
      return;
    }
    switch (phase_) {
      case Phase::kTrivSeed:
        phase_ = Phase::kTrivLoop;
        break;
      case Phase::kTrivLoop:
        if (act_.result() == 0) phase_ = Phase::kColorXchg;
        break;
      case Phase::kColorXchg:
        // Re-adding edges happens vertex-by-vertex in kFwdSeed; the
        // channels are cleared once here, and the per-slot scratch plus
        // the sorted adjacency copies are (re)built while still
        // single-threaded — kFwdSeed's compute may run on several
        // compute threads.
        fwd_prop_.clear_edges();
        bwd_prop_.clear_edges();
        scratch_.resize(static_cast<std::size_t>(compute_threads()));
        if (sorted_edges_.empty()) build_sorted_edges();
        phase_ = Phase::kFwdSeed;
        break;
      case Phase::kFwdSeed:
        phase_ = Phase::kBwdSeed;  // forward labels are converged already
        break;
      case Phase::kBwdSeed:
        phase_ = Phase::kDetect;
        break;
      case Phase::kDetect:
        phase_ = (alive_.result() == 0) ? Phase::kDone : Phase::kTrivSeed;
        break;
      default:
        break;
    }
  }

  void save_program_state(runtime::Buffer& out) const override {
    out.write<Phase>(phase_);
  }
  void restore_program_state(runtime::Buffer& in) override {
    phase_ = in.read<Phase>();
  }

  void compute(SccVertex& v) override {
    auto& val = v.value();
    switch (phase_) {
      case Phase::kTrivSeed: {
        if (!val.live) return;
        val.live_in = 0;
        val.live_out = 0;
        for (const auto& e : v.edges()) {
          if (e.weight == kFwdTag) {
            cnt_in_.send_message(e.dst, 1);
          } else {
            cnt_out_.send_message(e.dst, 1);
          }
        }
        break;
      }
      case Phase::kTrivLoop: {
        if (!val.live) return;
        val.live_in += cnt_in_.get_message();
        val.live_out += cnt_out_.get_message();
        if (val.live_in <= 0 || val.live_out <= 0) {
          val.scc = v.id();
          val.live = false;
          for (const auto& e : v.edges()) {
            if (e.weight == kFwdTag) {
              cnt_in_.send_message(e.dst, -1);
            } else {
              cnt_out_.send_message(e.dst, -1);
            }
          }
          act_.add(1);
        }
        break;
      }
      case Phase::kColorXchg: {
        if (!val.live) return;
        // Advertise my color to both neighborhoods so they can prune.
        for (const auto& e : v.edges()) {
          colors_.send_message(
              e.dst, SccColorMsg{v.id(), val.color_f, val.color_b});
        }
        break;
      }
      case Phase::kFwdSeed: {
        if (!val.live) return;
        // Keep only edges to live, same-color neighbors: the propagation
        // channels then need no per-message filtering at all. Matching is
        // a sort + two-pointer merge against a sorted adjacency copy —
        // hashing here would dominate the whole algorithm. Scratch is
        // keyed by compute slot so parallel compute threads don't share
        // (sized, with sorted_edges_, in begin_superstep's kColorXchg).
        auto& scratch = scratch_[static_cast<std::size_t>(compute_slot())];
        scratch.clear();
        for (const auto& m : colors_.get_iterator()) {
          if (m.color_f == val.color_f && m.color_b == val.color_b) {
            scratch.push_back(m.sender);
          }
        }
        std::sort(scratch.begin(), scratch.end());
        const auto& edges = sorted_edges_[current_local()];
        std::size_t mi = 0;
        for (const auto& e : edges) {
          while (mi < scratch.size() && scratch[mi] < e.dst) ++mi;
          if (mi == scratch.size()) break;
          if (scratch[mi] != e.dst) continue;
          if (e.weight == kFwdTag) {
            fwd_prop_.add_edge(e.dst);
          } else {
            bwd_prop_.add_edge(e.dst);
          }
        }
        fwd_prop_.set_value(v.id());
        break;
      }
      case Phase::kBwdSeed: {
        if (!val.live) return;
        val.label_f = fwd_prop_.get_value();
        bwd_prop_.set_value(v.id());
        break;
      }
      case Phase::kDetect: {
        if (val.live) {
          val.label_b = bwd_prop_.get_value();
          if (val.label_f == val.label_b) {
            val.scc = val.label_f;
            val.live = false;
          } else {
            val.color_f = val.label_f;
            val.color_b = val.label_b;
            alive_.add(1);
          }
        }
        break;
      }
      case Phase::kDone:
        v.vote_to_halt();
        break;
      default:
        break;
    }
  }

 private:
  /// Per-vertex adjacency sorted by destination id (duplicate dsts keep
  /// both direction tags adjacent), built once on first use.
  void build_sorted_edges() {
    sorted_edges_.resize(num_local());
    for (std::uint32_t lidx = 0; lidx < num_local(); ++lidx) {
      const auto edges = local_vertex(lidx).edges();
      auto& sorted = sorted_edges_[lidx];
      sorted.assign(edges.begin(), edges.end());
      std::sort(sorted.begin(), sorted.end(),
                [](const graph::Edge& a, const graph::Edge& b) {
                  return a.dst < b.dst;
                });
    }
  }

  Phase phase_ = Phase::kTrivSeed;
  CombinedMessage<SccVertex, std::int32_t> cnt_in_{
      this, scc_detail::sum_i32(), "cnt_in"};
  CombinedMessage<SccVertex, std::int32_t> cnt_out_{
      this, scc_detail::sum_i32(), "cnt_out"};
  DirectMessage<SccVertex, SccColorMsg> colors_{this, "colors"};
  Propagation<SccVertex, VertexId> fwd_prop_{
      this, make_combiner(c_min, graph::kInvalidVertex), "fwd"};
  Propagation<SccVertex, VertexId> bwd_prop_{
      this, make_combiner(c_min, graph::kInvalidVertex), "bwd"};
  Aggregator<SccVertex, std::uint64_t> act_{this, scc_detail::sum_u64(),
                                            "activity"};
  Aggregator<SccVertex, std::uint64_t> alive_{this, scc_detail::sum_u64(),
                                              "alive"};
  std::vector<std::vector<graph::Edge>> sorted_edges_;
  /// Same-color senders, reused per vertex; one instance per compute slot.
  std::vector<std::vector<VertexId>> scratch_;
};

}  // namespace pregel::algo
