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
// owning its pattern): by default no degree threshold is needed (every
// vertex is mirrored — the handshake already paid for the tables), and
// steady-state rounds ship bare values in the agreed source order, so the
// receiver scatters by position instead of hashing sender ids (the hash
// lookup is exactly the ghost-mode cost the paper's V-B1 analysis calls
// out).
//
// Degree-threshold mode (PGCH_MIRROR_DEGREE / set_mirror_degree, 0 = off):
// only senders with out-degree >= the threshold are mirrored; the rest
// ship explicit (target lidx, value) pairs in a direct section appended
// after the mirrored values of the same payload. On graphs where most
// vertices have few neighbors per peer, this shrinks the one-time
// handshake tables (only hubs install mirrors) at the cost of 4 bytes of
// addressing per low-degree (sender, peer) value in every round —
// tools/graph_convert --stats prints the degree percentiles to pick the
// threshold from. The threshold changes the per-vertex fold order
// (mirrored contributions fold before direct ones per peer), so exact
// combiners are unaffected while float results may differ in low bits
// across *different* thresholds; for a fixed threshold results remain
// bitwise-identical across thread counts, schedules and transports.
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
#include "runtime/env.hpp"

namespace pregel::core {

/// The PGCH_MIRROR_DEGREE environment default of
/// MirrorScatter::set_mirror_degree (0 / unset = mirror every sender).
inline std::uint32_t mirror_degree_from_env() {
  return static_cast<std::uint32_t>(
      runtime::env_int("PGCH_MIRROR_DEGREE", 0, 0));
}

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
        direct_(static_cast<std::size_t>(w->num_workers())),
        slot_(w->num_local(), combiner_.identity),
        has_(w->num_local(), 0),
        recv_touched_(1),
        mirrors_(static_cast<std::size_t>(w->num_workers())),
        handshake_sent_(static_cast<std::size_t>(w->num_workers()), 0),
        seg_(static_cast<std::size_t>(w->num_workers()), nullptr),
        spans_(static_cast<std::size_t>(w->num_workers())),
        direct_spans_(static_cast<std::size_t>(w->num_workers())) {}

  /// Mirror only senders with out-degree >= `degree`; 0 (the default,
  /// overridable via PGCH_MIRROR_DEGREE) mirrors every sender. Must be
  /// identical on every rank and set before the first superstep (the
  /// split is baked in when the edge set finalizes).
  void set_mirror_degree(std::uint32_t degree) {
    if (finalized_) {
      throw std::logic_error(
          "MirrorScatter: set_mirror_degree after the edge set was "
          "finalized");
    }
    mirror_degree_ = degree;
  }
  [[nodiscard]] std::uint32_t mirror_degree() const noexcept {
    return mirror_degree_;
  }

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
    // reservation: one value per mirrored sender at a fixed position,
    // then (threshold mode) one explicit pair per direct send — both
    // sections are static, so segments stay pre-sized every round.
    const bool mixed = mirror_degree_ > 0;
    std::uint64_t total_sends = 0;
    for (int to = 0; to < num_workers; ++to) {
      runtime::Buffer& out = w().outbox(to);
      auto& to_peer = senders_[static_cast<std::size_t>(to)];
      const auto& to_direct = direct_[static_cast<std::size_t>(to)];
      const bool first = handshake_sent_[static_cast<std::size_t>(to)] == 0;
      if (mixed) {
        out.write<std::uint8_t>(first ? kTagHandshakeMixed : kTagValuesMixed);
      } else {
        out.write<std::uint8_t>(first ? kTagHandshake : kTagValues);
      }
      out.write<std::uint32_t>(static_cast<std::uint32_t>(to_peer.size()));
      if (mixed) {
        out.write<std::uint32_t>(
            static_cast<std::uint32_t>(to_direct.size()));
      }
      if (first) {
        // Install the mirror tables: per sending vertex, the neighbor
        // list it owns on that worker (positional from now on).
        for (const auto& s : to_peer) {
          out.write_vector(s.targets);
        }
        handshake_sent_[static_cast<std::size_t>(to)] = 1;
      }
      seg_[static_cast<std::size_t>(to)] = out.extend(
          to_peer.size() * sizeof(ValT) + to_direct.size() * kDirectWireBytes);
      total_sends += to_peer.size() + to_direct.size();
    }

    w().run_comm_partitioned(
        total_sends, static_cast<std::uint32_t>(num_workers), nullptr,
        [this](std::uint32_t begin, std::uint32_t end, int) {
          fill_ranks(static_cast<int>(begin), static_cast<int>(end));
        });
  }

  /// Range-partitioned delivery: mirror tables are installed (and
  /// validated) in the first round, then every pool slot scans each
  /// peer's value list (and, in threshold mode, its direct-pair section)
  /// and applies only the targets inside its contiguous local-vertex
  /// range. Per-vertex fold order stays (peer order, then mirrored source
  /// order, then direct pair order) — the one-slot order.
  void deserialize() override {
    const int num_workers = w().num_workers();
    std::uint64_t total_targets = 0;
    for (int from = 0; from < num_workers; ++from) {
      runtime::Buffer& in = w().inbox(from);
      const auto tag = in.read<std::uint8_t>();
      if (tag == kTagIdle) {
        spans_[static_cast<std::size_t>(from)] = {nullptr, 0};
        direct_spans_[static_cast<std::size_t>(from)] = {nullptr, 0};
        continue;
      }
      const bool mixed = tag == kTagHandshakeMixed || tag == kTagValuesMixed;
      const auto n = in.read<std::uint32_t>();
      const std::uint32_t nd = mixed ? in.read<std::uint32_t>() : 0;
      auto& table = mirrors_[static_cast<std::size_t>(from)];
      if (tag == kTagHandshake || tag == kTagHandshakeMixed) {
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
      direct_spans_[static_cast<std::size_t>(from)] = {in.read_ptr(), nd};
      in.skip(std::size_t{nd} * kDirectWireBytes);
      for (std::uint32_t i = 0; i < n; ++i) total_targets += table[i].size();
      total_targets += nd;
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
  // Threshold-mode payloads (mirror_degree_ > 0) carry an extra direct
  // section; distinct tags keep the default-mode wire format byte-for-byte
  // what it always was.
  static constexpr std::uint8_t kTagHandshakeMixed = 3;
  static constexpr std::uint8_t kTagValuesMixed = 4;

  /// One sending vertex's mirror on one worker.
  struct Sender {
    std::uint32_t src;                   ///< local index of the sender
    std::vector<std::uint32_t> targets;  ///< receiver local indices
  };

  /// One below-threshold (sender, target) pair: shipped explicitly as
  /// (dst lidx, value) every round instead of through a mirror table.
  struct DirectSend {
    std::uint32_t src;  ///< local index of the sender (this rank)
    std::uint32_t dst;  ///< local index of the target (receiving rank)
  };

  /// Raw bytes one direct pair occupies on the wire (written field by
  /// field, so no struct padding travels).
  static constexpr std::size_t kDirectWireBytes =
      sizeof(std::uint32_t) + sizeof(ValT);

  void finalize() {
    const auto num_workers = static_cast<std::size_t>(w().num_workers());
    for (std::uint32_t src = 0;
         src < static_cast<std::uint32_t>(adj_.size()); ++src) {
      if (adj_[src].empty()) continue;
      const bool mirrored =
          mirror_degree_ == 0 || adj_[src].size() >= mirror_degree_;
      // Bucket this vertex's neighbors by owner.
      std::vector<std::vector<std::uint32_t>> buckets(num_workers);
      for (const KeyT dst : adj_[src]) {
        buckets[static_cast<std::size_t>(w().owner_of(dst))].push_back(
            w().local_of(dst));
      }
      for (std::size_t peer = 0; peer < num_workers; ++peer) {
        if (buckets[peer].empty()) continue;
        if (mirrored) {
          senders_[peer].push_back(Sender{src, std::move(buckets[peer])});
        } else {
          for (const std::uint32_t dst : buckets[peer]) {
            direct_[peer].push_back(DirectSend{src, dst});
          }
        }
      }
      adj_[src].clear();
      adj_[src].shrink_to_fit();  // the channel-side copy is now obsolete
    }
    finalized_ = true;
  }

  /// Copy the broadcast values of destination ranks [begin, end) into
  /// their pre-sized segments: mirrored values in the agreed sender
  /// order, then the direct (dst lidx, value) pairs in the agreed pair
  /// order.
  void fill_ranks(int begin, int end) {
    for (int to = begin; to < end; ++to) {
      const auto& to_peer = senders_[static_cast<std::size_t>(to)];
      std::byte* p = seg_[static_cast<std::size_t>(to)];
      for (const auto& s : to_peer) {
        std::memcpy(p, &vals_[s.src], sizeof(ValT));
        p += sizeof(ValT);
      }
      for (const DirectSend& d : direct_[static_cast<std::size_t>(to)]) {
        std::memcpy(p, &d.dst, sizeof(std::uint32_t));
        p += sizeof(std::uint32_t);
        std::memcpy(p, &vals_[d.src], sizeof(ValT));
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
      const auto& [dptr, nd] = direct_spans_[static_cast<std::size_t>(from)];
      const std::byte* q = dptr;
      for (std::uint32_t j = 0; j < nd; ++j, q += kDirectWireBytes) {
        std::uint32_t lidx;
        std::memcpy(&lidx, q, sizeof(std::uint32_t));
        if (lidx < lo || lidx >= hi) {
          detail::check_local_index(lidx, worker_->num_local(), name());
          continue;
        }
        ValT val;
        std::memcpy(&val, q + sizeof(std::uint32_t), sizeof(ValT));
        apply(lidx, val, delivery_slot);
      }
    }
  }

  Worker<VertexT>* worker_;
  Combiner<ValT> combiner_;

  // Sender side.
  std::vector<ValT> vals_;
  std::vector<std::vector<KeyT>> adj_;   ///< pre-finalize staging
  std::vector<std::vector<Sender>> senders_;  ///< per peer, fixed order
  /// Below-threshold sends per peer (threshold mode only), fixed order.
  std::vector<std::vector<DirectSend>> direct_;
  std::atomic<bool> dirty_{false};
  bool finalized_ = false;
  std::uint32_t mirror_degree_ = mirror_degree_from_env();

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
  std::vector<std::pair<const std::byte*, std::uint32_t>> direct_spans_;
};

}  // namespace pregel::core
