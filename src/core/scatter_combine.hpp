#pragma once
// ScatterCombine: optimized channel for the *static messaging pattern*
// (Section IV-C1, Fig. 5): every vertex sends one value along all of its
// registered edges every superstep, regardless of local state, and the
// receiver only needs the combined value.
//
// Two optimizations over CombinedMessage, both enabled by the pattern
// being static:
//  1. No hashing/sorting per superstep. Edges are grouped by destination
//     once, in ascending (owner, local index) order, by the static gather
//     (static_gather.hpp) — O(E + V), no comparison sort — so each
//     superstep a single linear scan of the grouped source array produces
//     the combined message per unique destination, folding each
//     destination's values in edge registration order.
//  2. No identifier retransmission. Because the destination sequence never
//     changes, the first communication round ships it once (a handshake);
//     afterwards senders transmit bare values and the receiver re-combines
//     them positionally. This is the "removal of redundant transmission of
//     vertices' identifiers" the paper credits for the message-size drop.
//
// Parallel communication phase (DESIGN.md section 8): each unique
// destination's value lands at a fixed offset of its worker's payload, so
// serialize pre-sizes every outbox segment and the static gather folds
// disjoint run ranges on the pool directly into the segments. Per-run
// fold order is the registration order, the same left fold on every
// thread count and schedule, so even float values are bit-identical.
// Delivery range-partitions the receiver's vertex space and applies
// positionally (peer order, then payload order).
//
// CombinedMessage's full publish (DESIGN.md section 9) folds over the same
// static gather but ships one (lidx, value) pair per unique destination
// every superstep; this channel pays the destination list once and then
// ships bare values.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/channel.hpp"
#include "core/static_gather.hpp"
#include "core/types.hpp"
#include "core/worker.hpp"

namespace pregel::core {

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
        spans_(static_cast<std::size_t>(w->num_workers())) {}

  /// Register an outgoing edge of the current vertex. All add_edge calls
  /// must happen before the first set_message is delivered (the pattern is
  /// static); typically in superstep 1's compute.
  void add_edge(KeyT dst) {
    if (gather_.built()) {
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
    // The first scattering superstep groups the edges and ships every
    // worker its destination order once (the handshake).
    const bool handshake = !gather_.built();
    if (handshake) {
      gather_.build(w().dgraph(), ReceiverOrder::kAscending,
                    [this](auto&& visit) {
                      for (const EdgeRec& e : edges_) {
                        visit(e.src, e.dst, graph::Weight{1});
                      }
                    });
      std::vector<EdgeRec>().swap(edges_);
    }

    // The payload of worker `to` is exactly its unique-destination count
    // of values, so the segment is pre-sized and filled out of order.
    std::vector<std::byte*> seg(static_cast<std::size_t>(num_workers));
    for (int to = 0; to < num_workers; ++to) {
      runtime::Buffer& out = w().outbox(to);
      out.write<std::uint8_t>(handshake ? kTagHandshake : kTagValues);
      const std::size_t uniq = gather_.receivers(to);
      out.write<std::uint32_t>(static_cast<std::uint32_t>(uniq));
      if (handshake) {
        out.write_bytes(gather_.receiver_lidx(to),
                        uniq * sizeof(std::uint32_t));
      }
      seg[static_cast<std::size_t>(to)] = out.extend(uniq * sizeof(ValT));
    }
    with_fold(combiner_, [&](auto fold) {
      gather_.fold_runs(
          w(), fold,
          [this](std::uint32_t src, std::uint64_t) { return vals_[src]; },
          [&seg](int to, std::size_t at, std::uint32_t, const ValT& acc) {
            std::memcpy(seg[static_cast<std::size_t>(to)] + at * sizeof(ValT),
                        &acc, sizeof(ValT));
          });
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
    KeyT dst;           ///< global id of the receiver
  };

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
  /// Edges registered so far; freed once grouped into gather_.
  std::vector<EdgeRec> edges_;
  StaticGather gather_;
  std::vector<ValT> vals_;
  std::atomic<bool> dirty_{false};

  // Parallel compute staging for the shared edge array (see
  // Channel::begin_compute); set_message() needs none.
  detail::ChunkStagedLog<EdgeRec> par_;

  // Receiver side.
  std::vector<ValT> slot_;
  std::vector<std::uint8_t> has_;
  std::vector<std::vector<std::uint32_t>> recv_touched_;  ///< per slot
  std::vector<std::vector<std::uint32_t>> recv_order_;    ///< per sender
  /// Round-scoped scratch of deserialize: each peer's value list.
  std::vector<std::pair<const std::byte*, std::uint32_t>> spans_;
};

}  // namespace pregel::core
