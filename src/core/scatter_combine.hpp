#pragma once
// ScatterCombine: optimized channel for the *static messaging pattern*
// (Section IV-C1, Fig. 5): every vertex sends one value along all of its
// registered edges every superstep, regardless of local state, and the
// receiver only needs the combined value.
//
// Two optimizations over CombinedMessage, both enabled by the pattern
// being static:
//  1. No hashing/sorting per superstep. Edges are grouped by destination
//     once, by one stable counting sort on the dense key (owner, local
//     index) — O(E + V), no comparison sort — so each superstep a single
//     linear scan of the grouped source array produces the combined
//     message per unique destination, folding each destination's values
//     in edge registration order.
//  2. No identifier retransmission. Because the destination sequence never
//     changes, the first communication round ships it once (a handshake);
//     afterwards senders transmit bare values and the receiver re-combines
//     them positionally. This is the "removal of redundant transmission of
//     vertices' identifiers" the paper credits for the message-size drop.
//
// Parallel communication phase (DESIGN.md section 8): the steady-state
// value scan is embarrassingly parallel over destination runs — each
// unique destination's value lands at a fixed offset of its worker's
// payload, so serialize pre-sizes every outbox segment and the pool
// folds disjoint run ranges (split on run boundaries by edge count)
// directly into the segments. Per-run fold order is the registration
// order, the same left fold on every thread count and schedule, so even
// float values are bit-identical. Delivery range-partitions the
// receiver's vertex space and applies positionally (peer order, then
// payload order).
//
// Unlike CombinedMessage::publish() (DESIGN.md section 9), which gathers
// one value per vertex over a static per-run plan but still ships one
// (lidx, value) pair per unique destination, this channel's edge
// registry is built by add_edge() during compute and, after the
// handshake, ships one bare value per unique destination: a program whose
// pattern is static every superstep is served best here.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/channel.hpp"
#include "core/types.hpp"
#include "core/worker.hpp"

namespace pregel::core {

namespace detail {

/// A ScatterCombine rank indexes its registered edges with 32-bit run
/// starts and ships the count as a 32-bit field; refuse more edges than
/// that by name rather than wrap.
inline void check_scatter_edge_count(std::size_t edges,
                                     std::string_view channel) {
  if (edges > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        std::string(channel) + ": " + std::to_string(edges) +
        " registered edges on one rank exceed the 2^32 - 1 a ScatterCombine "
        "channel can index");
  }
}

}  // namespace detail

template <typename VertexT, typename ValT>
  requires runtime::TriviallySerializable<ValT>
class ScatterCombine : public Channel {
 public:
  ScatterCombine(Worker<VertexT>* w, Combiner<ValT> combiner,
                 std::string name = "scatter")
      : Channel(w, std::move(name)),
        worker_(w),
        combiner_(std::move(combiner)),
        vals_(w->num_local(), combiner_.identity),
        slot_(w->num_local(), combiner_.identity),
        has_(w->num_local(), 0),
        recv_touched_(1),
        recv_order_(static_cast<std::size_t>(w->num_workers())),
        handshake_sent_(static_cast<std::size_t>(w->num_workers()), 0),
        seg_(static_cast<std::size_t>(w->num_workers()), nullptr),
        spans_(static_cast<std::size_t>(w->num_workers())) {}

  /// Register an outgoing edge of the current vertex. All add_edge calls
  /// must happen before the first set_message is delivered (the pattern is
  /// static); typically in superstep 1's compute.
  void add_edge(KeyT dst) {
    if (finalized_) {
      throw std::logic_error(
          "ScatterCombine: add_edge after the edge set was finalized");
    }
    if (par_.active()) {
      par_.stage(EdgeRec{w().current_local(), dst});
      return;
    }
    edges_.push_back(EdgeRec{w().current_local(), dst});
  }

  /// Set the value the current vertex scatters along all its edges this
  /// superstep. A vertex that does not call set_message keeps its previous
  /// value (combiner identity initially). Writes only the caller's own
  /// per-vertex slot, so parallel compute threads need no staging here.
  void set_message(const ValT& m) {
    vals_[w().current_local()] = m;
    dirty_.store(true, std::memory_order_relaxed);
  }

  void begin_compute(int num_chunks) override { par_.open(num_chunks); }

  void end_compute() override {
    par_.replay([this](const EdgeRec& e) { edges_.push_back(e); });
  }

  /// Combined value from all in-edges, available the superstep after the
  /// senders scattered.
  [[nodiscard]] const ValT& get_message() const {
    return slot_[w().current_local()];
  }

  [[nodiscard]] bool has_message() const {
    return has_[w().current_local()] != 0;
  }

  void serialize() override {
    // Reset the receive slots the previous superstep filled.
    for (auto& touched : recv_touched_) {
      for (const std::uint32_t lidx : touched) {
        slot_[lidx] = combiner_.identity;
        has_[lidx] = 0;
      }
      touched.clear();
    }

    const int num_workers = w().num_workers();
    if (!dirty_.load(std::memory_order_relaxed)) {
      for (int to = 0; to < num_workers; ++to) {
        w().outbox(to).write<std::uint8_t>(kTagIdle);
      }
      return;
    }
    dirty_.store(false, std::memory_order_relaxed);
    if (!finalized_) finalize();

    // Headers, one-time handshakes, and payload segment reservation. The
    // payload of worker `to` is exactly its unique-destination count of
    // values, so the segment can be pre-sized and filled out of order.
    for (int to = 0; to < num_workers; ++to) {
      const auto t = static_cast<std::size_t>(to);
      runtime::Buffer& out = w().outbox(to);
      const bool first_time = handshake_sent_[t] == 0;
      out.write<std::uint8_t>(first_time ? kTagHandshake : kTagValues);
      const std::size_t uniq = uniq_offset_[t + 1] - uniq_offset_[t];
      out.write<std::uint32_t>(static_cast<std::uint32_t>(uniq));
      if (first_time) {
        // Ship the destination order once, then drop it.
        for (const std::uint32_t lidx : handshake_[t]) {
          out.write<std::uint32_t>(lidx);
        }
        std::vector<std::uint32_t>().swap(handshake_[t]);
        handshake_sent_[t] = 1;
      }
      seg_[t] = out.extend(uniq * sizeof(ValT));
    }

    // Split the run space on edge-count targets (runs vary wildly in size
    // on skewed graphs), aligned down to run boundaries: the first run
    // starting at or after each edge bound (one slot covers every run).
    const auto edges = static_cast<std::uint32_t>(src_.size());
    w().run_comm_partitioned(
        edges, edges, nullptr,
        [this](std::uint32_t e_lo, std::uint32_t e_hi, int) {
          const auto run_at = [this](std::uint32_t e) {
            return static_cast<std::size_t>(
                std::lower_bound(run_start_.begin(), run_start_.end(), e) -
                run_start_.begin());
          };
          fill_runs(run_at(e_lo), run_at(e_hi));
        });
  }

  /// Range-partitioned positional delivery: the handshake order lists are
  /// installed (and validated) in the first round, then every pool slot
  /// scans each peer's bare value list and folds the positions whose
  /// destination falls in its contiguous local-vertex range.
  void deserialize() override {
    const int num_workers = w().num_workers();
    std::uint64_t total = 0;
    for (int from = 0; from < num_workers; ++from) {
      runtime::Buffer& in = w().inbox(from);
      const auto tag = in.read<std::uint8_t>();
      if (tag == kTagIdle) {
        spans_[static_cast<std::size_t>(from)] = {nullptr, 0};
        continue;
      }
      if (tag != kTagHandshake && tag != kTagValues) {
        throw runtime::ProtocolError(name() + ": unknown wire tag " +
                                     std::to_string(tag));
      }
      const auto n = in.read<std::uint32_t>();
      auto& order = recv_order_[static_cast<std::size_t>(from)];
      if (tag == kTagHandshake) {
        order.resize(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          order[i] = in.read<std::uint32_t>();
          detail::check_local_index(order[i], worker_->num_local(), name());
        }
      } else if (order.size() != n) {
        throw runtime::ProtocolError(
            name() + ": value count " + std::to_string(n) +
            " does not match the handshake order list (" +
            std::to_string(order.size()) + ")");
      }
      spans_[static_cast<std::size_t>(from)] = {in.read_ptr(), n};
      in.skip(std::size_t{n} * sizeof(ValT));
      total += n;
    }
    w().run_comm_partitioned(
        total, worker_->num_local(), &recv_touched_,
        [this](std::uint32_t lo, std::uint32_t hi, int slot) {
          apply_spans(lo, hi, slot);
        });
  }

 private:
  static constexpr std::uint8_t kTagIdle = 0;
  static constexpr std::uint8_t kTagHandshake = 1;
  static constexpr std::uint8_t kTagValues = 2;

  struct EdgeRec {
    std::uint32_t src;  ///< local index of the sender
    KeyT dst;           ///< global id of the receiver, then its sort key
  };

  /// Group the registered edges by destination, once — the whole point
  /// of the channel is that this does not happen every superstep. One
  /// stable counting sort on the dense key base[owner(dst)] + local_of(dst)
  /// (base = prefix sum of the ranks' vertex counts): local indices ascend
  /// with global id within every rank, so key order is (owner, dst) order,
  /// and equal keys keep registration order. The key histogram yields the
  /// run starts (one run per unique destination), each worker's
  /// unique-destination range and its handshake list; afterwards only the
  /// sources survive, in key order, and the staged records are freed.
  /// O(E + V) time plus a transient V-entry histogram.
  void finalize() {
    detail::check_scatter_edge_count(edges_.size(), name());
    const auto num_workers = static_cast<std::size_t>(w().num_workers());
    const graph::DistributedGraph& dg = w().dgraph();
    std::vector<std::uint32_t> base(num_workers + 1, 0);
    for (std::size_t r = 0; r < num_workers; ++r) {
      base[r + 1] = base[r] + dg.num_local(static_cast<int>(r));
    }

    // Key each edge once (in place of its destination) and count per key.
    std::vector<std::uint32_t> start(base[num_workers], 0);
    for (EdgeRec& e : edges_) {
      e.dst = base[static_cast<std::size_t>(w().owner_of(e.dst))] +
              w().local_of(e.dst);
      ++start[e.dst];
    }

    // Walk the keys in order: every non-empty key is one run. Turn counts
    // into run starts in place.
    handshake_.assign(num_workers, {});
    uniq_offset_.assign(num_workers + 1, 0);
    run_start_.clear();
    std::uint32_t next = 0;
    for (std::size_t to = 0; to < num_workers; ++to) {
      auto& order = handshake_[to];
      for (std::uint32_t k = base[to]; k < base[to + 1]; ++k) {
        const std::uint32_t count = start[k];
        if (count == 0) continue;
        start[k] = next;
        run_start_.push_back(next);
        order.push_back(k - base[to]);
        next += count;
      }
      uniq_offset_[to + 1] = uniq_offset_[to] + order.size();
    }
    run_start_.push_back(next);

    // Stable scatter of the sources into key order.
    src_.resize(edges_.size());
    for (const EdgeRec& e : edges_) src_[start[e.dst]++] = e.src;
    std::vector<EdgeRec>().swap(edges_);
    finalized_ = true;
  }

  /// Fold unique-destination runs [r_begin, r_end) into their workers'
  /// payload segments. Run u of worker `to` lands at position
  /// u - uniq_offset_[to]; the fold over a run is the left fold in
  /// registration order, whichever slot scans it. The combiner's fold is
  /// chosen once for the whole range.
  void fill_runs(std::size_t r_begin, std::size_t r_end) {
    if (r_begin >= r_end) return;
    with_fold(combiner_, [&](auto fold) {
      auto rank = static_cast<std::size_t>(
          std::upper_bound(uniq_offset_.begin(), uniq_offset_.end(),
                           r_begin) -
          uniq_offset_.begin() - 1);
      for (std::size_t u = r_begin; u < r_end; ++u) {
        while (u >= uniq_offset_[rank + 1]) ++rank;
        std::uint32_t i = run_start_[u];
        const std::uint32_t i_end = run_start_[u + 1];
        ValT acc = vals_[src_[i]];
        for (++i; i < i_end; ++i) acc = fold(acc, vals_[src_[i]]);
        std::memcpy(seg_[rank] + (u - uniq_offset_[rank]) * sizeof(ValT),
                    &acc, sizeof(ValT));
      }
    });
  }

  template <typename Fold>
  void apply(std::uint32_t lidx, const ValT& val, int delivery_slot,
             Fold fold) {
    if (has_[lidx]) {
      slot_[lidx] = fold(slot_[lidx], val);
    } else {
      slot_[lidx] = val;
      has_[lidx] = 1;
      recv_touched_[static_cast<std::size_t>(delivery_slot)].push_back(lidx);
    }
    worker_->activate_local(lidx);  // atomic frontier word-OR
  }

  void apply_spans(std::uint32_t lo, std::uint32_t hi, int delivery_slot) {
    const int num_workers = w().num_workers();
    with_fold(combiner_, [&](auto fold) {
      for (int from = 0; from < num_workers; ++from) {
        const auto& [ptr, n] = spans_[static_cast<std::size_t>(from)];
        const auto& order = recv_order_[static_cast<std::size_t>(from)];
        const std::byte* p = ptr;
        for (std::uint32_t i = 0; i < n; ++i, p += sizeof(ValT)) {
          const std::uint32_t lidx = order[i];
          if (lidx < lo || lidx >= hi) continue;
          ValT val;
          std::memcpy(&val, p, sizeof(ValT));
          apply(lidx, val, delivery_slot, fold);
        }
      }
    });
  }

  Worker<VertexT>* worker_;
  Combiner<ValT> combiner_;

  // Sender side.
  /// Edges registered so far; freed by finalize().
  std::vector<EdgeRec> edges_;
  /// Source local index of every edge, grouped by destination — size E.
  std::vector<std::uint32_t> src_;
  /// Index into src_ of each unique destination's first edge, plus a
  /// trailing E — size U + 1.
  std::vector<std::uint32_t> run_start_;
  /// Global unique-destination index range per worker — size W + 1.
  std::vector<std::size_t> uniq_offset_;
  /// Per worker, the local indices of its unique destinations in run
  /// order: the handshake list, dropped once shipped.
  std::vector<std::vector<std::uint32_t>> handshake_;
  std::vector<ValT> vals_;
  std::atomic<bool> dirty_{false};
  bool finalized_ = false;

  // Parallel compute staging for the shared edge array (see
  // Channel::begin_compute); set_message() needs none.
  detail::ChunkStagedLog<EdgeRec> par_;

  // Receiver side.
  std::vector<ValT> slot_;
  std::vector<std::uint8_t> has_;
  std::vector<std::vector<std::uint32_t>> recv_touched_;  ///< per slot
  std::vector<std::vector<std::uint32_t>> recv_order_;    ///< per sender
  std::vector<std::uint8_t> handshake_sent_;

  // Round-scoped scratch of serialize / deserialize.
  std::vector<std::byte*> seg_;  ///< payload segment base per worker
  std::vector<std::pair<const std::byte*, std::uint32_t>> spans_;
};

}  // namespace pregel::core
