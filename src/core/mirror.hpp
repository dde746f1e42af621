#pragma once
// MirrorScatter: sender-centric message combining (the mirroring / ghost
// / vertex-replication technique of [2], [3], [13], [19], [29]) packaged
// as a channel — the library-extension route the paper's Section IV opens
// ("the channel is designed for allowing experts to implement new
// optimizations with ease").
//
// Pattern: the same static broadcast as ScatterCombine, but deduplicated
// on the *sender* axis: each vertex sends ONE value per worker that hosts
// at least one of its neighbors; a mirror table installed by a one-time
// handshake lets the receiver scatter that value to the local neighbors
// and fold it into the per-target slots.
//
// Two differences from Pregel+'s ghost mode (both follow from the channel
// owning its pattern): no degree threshold is needed (every vertex is
// mirrored — the handshake already paid for the tables), and
// steady-state rounds ship bare values in the agreed source order, so the
// receiver scatters by position instead of hashing sender ids (the hash
// lookup is exactly the ghost-mode cost the paper's V-B1 analysis calls
// out).
//
// Trade-off vs ScatterCombine: wire volume is one value per (source,
// worker) instead of one per (worker, unique target); mirroring wins when
// out-degrees are high and fan out to few workers (hub-heavy graphs),
// scatter-combine wins when in-degrees concentrate (fan-in). Both beat
// per-edge messaging; bench/micro_channels compares them head to head.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/channel.hpp"
#include "core/types.hpp"
#include "core/worker.hpp"

namespace pregel::core {

template <typename VertexT, typename ValT>
  requires runtime::TriviallySerializable<ValT>
class MirrorScatter : public Channel {
 public:
  MirrorScatter(Worker<VertexT>* w, Combiner<ValT> combiner,
                std::string name = "mirror")
      : Channel(w, std::move(name)),
        worker_(w),
        combiner_(std::move(combiner)),
        vals_(w->num_local(), combiner_.identity),
        adj_(w->num_local()),
        senders_(static_cast<std::size_t>(w->num_workers())),
        slot_(w->num_local(), combiner_.identity),
        has_(w->num_local(), 0),
        recv_touched_(1),
        mirrors_(static_cast<std::size_t>(w->num_workers())),
        handshake_sent_(static_cast<std::size_t>(w->num_workers()), 0),
        seg_(static_cast<std::size_t>(w->num_workers()), nullptr),
        spans_(static_cast<std::size_t>(w->num_workers())) {}

  /// Register an outgoing edge of the current vertex (static pattern:
  /// all edges before the first set_message is delivered).
  void add_edge(KeyT dst) {
    if (finalized_) {
      throw std::logic_error(
          "MirrorScatter: add_edge after the edge set was finalized");
    }
    adj_[w().current_local()].push_back(dst);
  }

  /// Value the current vertex broadcasts to all its neighbors this
  /// superstep. add_edge() and set_message() only touch the calling
  /// vertex's own slots (adj_[lidx] / vals_[lidx]), so parallel compute
  /// threads need no per-slot staging in this channel.
  void set_message(const ValT& m) {
    vals_[w().current_local()] = m;
    dirty_.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] const ValT& get_message() const {
    return slot_[w().current_local()];
  }
  [[nodiscard]] bool has_message() const {
    return has_[w().current_local()] != 0;
  }

  /// Steady-state rounds ship one bare value per (source, worker) at a
  /// fixed position, so the payload segments are pre-sized and the comm
  /// pool fills contiguous destination-rank ranges concurrently
  /// (DESIGN.md section 8).
  void serialize() override {
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

    // Headers, one-time mirror-table handshakes, and payload segment
    // reservation: one value per mirrored sender at a fixed position.
    std::uint64_t total_sends = 0;
    for (int to = 0; to < num_workers; ++to) {
      runtime::Buffer& out = w().outbox(to);
      auto& to_peer = senders_[static_cast<std::size_t>(to)];
      const bool first = handshake_sent_[static_cast<std::size_t>(to)] == 0;
      out.write<std::uint8_t>(first ? kTagHandshake : kTagValues);
      out.write<std::uint32_t>(static_cast<std::uint32_t>(to_peer.size()));
      if (first) {
        // Install the mirror tables: per sending vertex, the neighbor
        // list it owns on that worker (positional from now on).
        for (const auto& s : to_peer) {
          out.write_vector(s.targets);
        }
        handshake_sent_[static_cast<std::size_t>(to)] = 1;
      }
      seg_[static_cast<std::size_t>(to)] =
          out.extend(to_peer.size() * sizeof(ValT));
      total_sends += to_peer.size();
    }

    w().run_comm_partitioned(
        total_sends, static_cast<std::uint32_t>(num_workers), nullptr,
        [this](std::uint32_t begin, std::uint32_t end, int) {
          fill_ranks(static_cast<int>(begin), static_cast<int>(end));
        });
  }

  /// Range-partitioned delivery: mirror tables are installed (and
  /// validated) in the first round, then every pool slot scans each
  /// peer's value list and applies only the targets inside its contiguous
  /// local-vertex range. Per-vertex fold order stays (peer order, then
  /// source order) — the one-slot order.
  void deserialize() override {
    const int num_workers = w().num_workers();
    std::uint64_t total_targets = 0;
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
      auto& table = mirrors_[static_cast<std::size_t>(from)];
      if (tag == kTagHandshake) {
        table.resize(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          table[i] = in.read_vector<std::uint32_t>();
          for (const std::uint32_t lidx : table[i]) {
            detail::check_local_index(lidx, worker_->num_local(), name());
          }
        }
      } else if (table.size() != n) {
        throw runtime::ProtocolError(
            name() + ": value count " + std::to_string(n) +
            " does not match the installed mirror table (" +
            std::to_string(table.size()) + ")");
      }
      spans_[static_cast<std::size_t>(from)] = {in.read_ptr(), n};
      in.skip(std::size_t{n} * sizeof(ValT));
      for (std::uint32_t i = 0; i < n; ++i) total_targets += table[i].size();
    }
    w().run_comm_partitioned(
        total_targets, worker_->num_local(), &recv_touched_,
        [this](std::uint32_t lo, std::uint32_t hi, int slot) {
          apply_spans(lo, hi, slot);
        });
  }

 private:
  static constexpr std::uint8_t kTagIdle = 0;
  static constexpr std::uint8_t kTagHandshake = 1;
  static constexpr std::uint8_t kTagValues = 2;

  /// One sending vertex's mirror on one worker.
  struct Sender {
    std::uint32_t src;                   ///< local index of the sender
    std::vector<std::uint32_t> targets;  ///< receiver local indices
  };

  void finalize() {
    const auto num_workers = static_cast<std::size_t>(w().num_workers());
    for (std::uint32_t src = 0;
         src < static_cast<std::uint32_t>(adj_.size()); ++src) {
      if (adj_[src].empty()) continue;
      // Bucket this vertex's neighbors by owner.
      std::vector<std::vector<std::uint32_t>> buckets(num_workers);
      for (const KeyT dst : adj_[src]) {
        buckets[static_cast<std::size_t>(w().owner_of(dst))].push_back(
            w().local_of(dst));
      }
      for (std::size_t peer = 0; peer < num_workers; ++peer) {
        if (buckets[peer].empty()) continue;
        senders_[peer].push_back(Sender{src, std::move(buckets[peer])});
      }
      adj_[src].clear();
      adj_[src].shrink_to_fit();  // the channel-side copy is now obsolete
    }
    finalized_ = true;
  }

  /// Copy the broadcast values of destination ranks [begin, end) into
  /// their pre-sized segments, in the agreed sender order.
  void fill_ranks(int begin, int end) {
    for (int to = begin; to < end; ++to) {
      const auto& to_peer = senders_[static_cast<std::size_t>(to)];
      std::byte* p = seg_[static_cast<std::size_t>(to)];
      for (const auto& s : to_peer) {
        std::memcpy(p, &vals_[s.src], sizeof(ValT));
        p += sizeof(ValT);
      }
    }
  }

  void apply(std::uint32_t lidx, const ValT& val, int delivery_slot) {
    if (has_[lidx]) {
      slot_[lidx] = combiner_(slot_[lidx], val);
    } else {
      slot_[lidx] = val;
      has_[lidx] = 1;
      recv_touched_[static_cast<std::size_t>(delivery_slot)].push_back(lidx);
    }
    worker_->activate_local(lidx);  // atomic frontier word-OR
  }

  void apply_spans(std::uint32_t lo, std::uint32_t hi, int delivery_slot) {
    const int num_workers = w().num_workers();
    for (int from = 0; from < num_workers; ++from) {
      const auto& [ptr, n] = spans_[static_cast<std::size_t>(from)];
      const auto& table = mirrors_[static_cast<std::size_t>(from)];
      const std::byte* p = ptr;
      for (std::uint32_t i = 0; i < n; ++i, p += sizeof(ValT)) {
        ValT val;
        std::memcpy(&val, p, sizeof(ValT));
        for (const std::uint32_t lidx : table[i]) {
          if (lidx < lo || lidx >= hi) continue;
          apply(lidx, val, delivery_slot);
        }
      }
    }
  }

  Worker<VertexT>* worker_;
  Combiner<ValT> combiner_;

  // Sender side.
  std::vector<ValT> vals_;
  std::vector<std::vector<KeyT>> adj_;   ///< pre-finalize staging
  std::vector<std::vector<Sender>> senders_;  ///< per peer, fixed order
  std::atomic<bool> dirty_{false};
  bool finalized_ = false;

  // Receiver side.
  std::vector<ValT> slot_;
  std::vector<std::uint8_t> has_;
  std::vector<std::vector<std::uint32_t>> recv_touched_;  ///< per slot
  /// Per sending worker: target lists aligned with its sender order.
  std::vector<std::vector<std::vector<std::uint32_t>>> mirrors_;
  std::vector<std::uint8_t> handshake_sent_;

  // Round-scoped scratch of serialize / deserialize.
  std::vector<std::byte*> seg_;  ///< payload segment base per worker
  std::vector<std::pair<const std::byte*, std::uint32_t>> spans_;
};

}  // namespace pregel::core
