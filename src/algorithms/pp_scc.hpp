#pragma once
// Pregel+ baseline Min-Label SCC. Identical phase structure to the
// channel engine's SccBasic, but every message — degree deltas (which
// only need 4 useful bytes), label waves (12 useful bytes) — is forced
// through ONE 16-byte message type, and because the kinds are mixed no
// global combiner is legal, so the degree deltas travel uncombined
// (one message per edge instead of one combined value per receiver).
// This is the monolithic-message overhead Table IV quantifies for SCC.
// The frontier follows SccBasic's rule (scc.hpp header): vertices halt
// in every compute() and the phases that need everyone wake everyone, so
// Table VII compares like with like.

#include <cstdint>

#include "algorithms/scc.hpp"  // SccValue / SccVertex / tags / phases
#include "pregelplus/pp_worker.hpp"

namespace pregel::algo {

/// The monolithic SCC message: tag + the widest payload any phase needs.
struct PPSccMsg {
  std::uint32_t tag = 0;  ///< 0: cnt_in delta, 1: cnt_out delta, 2: label
  std::int32_t a = 0;     ///< delta (tags 0/1) or color_f (tag 2)
  std::uint32_t b = 0;    ///< color_b (tag 2)
  std::uint32_t c = 0;    ///< label   (tag 2)
};

class PPScc : public plus::PPWorker<SccVertex, PPSccMsg> {
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
        if (agg_result(0) == 0) enter(Phase::kFwdSeed);
        break;
      case Phase::kFwdSeed:
        enter(Phase::kFwdLoop);
        break;
      case Phase::kFwdLoop:
        if (agg_result(0) == 0) enter(Phase::kBwdSeed);
        break;
      case Phase::kBwdSeed:
        enter(Phase::kBwdLoop);
        break;
      case Phase::kBwdLoop:
        if (agg_result(0) == 0) enter(Phase::kDetect);
        break;
      case Phase::kDetect:
        enter(agg_result(1) == 0 ? Phase::kDone : Phase::kTrivSeed);
        break;
      default:
        break;
    }
  }

  [[nodiscard]] bool wants_next_superstep() const override {
    return phase_ != Phase::kDone;
  }

  void compute(SccVertex& v, std::span<const PPSccMsg> msgs) override {
    v.vote_to_halt();  // a message, or the next phase change, wakes it
    auto& val = v.value();
    switch (phase_) {
      case Phase::kTrivSeed: {
        if (!val.live) return;
        val.live_in = 0;
        val.live_out = 0;
        send_deltas(v, +1);
        break;
      }
      case Phase::kTrivLoop: {
        if (!val.live) return;
        for (const auto& m : msgs) {  // uncombined: one message per edge
          if (m.tag == 0) val.live_in += m.a;
          if (m.tag == 1) val.live_out += m.a;
        }
        if (val.live_in <= 0 || val.live_out <= 0) {
          val.scc = v.id();
          val.live = false;
          send_deltas(v, -1);
          agg_add(0, 1);
        }
        break;
      }
      case Phase::kFwdSeed: {
        if (!val.live) return;
        val.label_f = v.id();
        send_label(v, kFwdTag, val.label_f);
        break;
      }
      case Phase::kFwdLoop: {
        if (!val.live) return;
        if (fold_labels(msgs, val, val.label_f)) {
          send_label(v, kFwdTag, val.label_f);
          agg_add(0, 1);
        }
        break;
      }
      case Phase::kBwdSeed: {
        if (!val.live) return;
        val.label_b = v.id();
        send_label(v, kBwdTag, val.label_b);
        break;
      }
      case Phase::kBwdLoop: {
        if (!val.live) return;
        if (fold_labels(msgs, val, val.label_b)) {
          send_label(v, kBwdTag, val.label_b);
          agg_add(0, 1);
        }
        break;
      }
      case Phase::kDetect: {
        if (val.live) {
          if (val.label_f == val.label_b) {
            val.scc = val.label_f;
            val.live = false;
          } else {
            val.color_f = val.label_f;
            val.color_b = val.label_b;
            agg_add(1, 1);
          }
        }
        break;
      }
      default:
        break;
    }
  }

 private:
  void enter(Phase next) {
    phase_ = next;
    if (scc_detail::wakes_everyone(next)) this->activate_all();
  }

  void send_deltas(SccVertex& v, std::int32_t delta) {
    for (const auto& e : v.edges()) {
      send_message(e.dst, PPSccMsg{e.weight == kFwdTag ? 0u : 1u, delta, 0,
                                   0});
    }
  }

  void send_label(SccVertex& v, graph::Weight direction, VertexId label) {
    for (const auto& e : v.edges()) {
      if (e.weight == direction) {
        send_message(e.dst,
                     PPSccMsg{2, static_cast<std::int32_t>(v.value().color_f),
                              v.value().color_b, label});
      }
    }
  }

  static bool fold_labels(std::span<const PPSccMsg> msgs, const SccValue& val,
                          VertexId& mine) {
    bool changed = false;
    for (const auto& m : msgs) {
      if (m.tag != 2) continue;
      if (static_cast<VertexId>(m.a) != val.color_f || m.b != val.color_b) {
        continue;
      }
      if (m.c < mine) {
        mine = m.c;
        changed = true;
      }
    }
    return changed;
  }

  Phase phase_ = Phase::kTrivSeed;
};

}  // namespace pregel::algo
