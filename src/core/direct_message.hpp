#pragma once
// DirectMessage: the plain point-to-point message channel (Table I).
// Equivalent to Pregel's raw message passing: any vertex can send a value
// to any known vertex; the receiver iterates the values that arrived in
// the previous superstep.
//
// Staging is sharded per (compute chunk, destination rank): a send is one
// push into the shard of the chunk the caller is running, and serialize()
// concatenates the shards in chunk order — the sequential message order,
// since compute chunks are contiguous and ascending, regardless of which
// thread executed each chunk — fanning the per-destination-rank
// emission over the pool when the engine runs the communication
// phase with threads. Delivery range-partitions the local vertex space
// (DESIGN.md section 8); per-vertex arrival order stays (peer order, then
// in-payload order), exactly the sequential one.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/channel.hpp"
#include "core/types.hpp"
#include "core/worker.hpp"

namespace pregel::core {

template <typename VertexT, typename ValT>
  requires runtime::TriviallySerializable<ValT>
class DirectMessage : public Channel {
 public:
  explicit DirectMessage(Worker<VertexT>* w, std::string name = "direct")
      : Channel(w, std::move(name)),
        worker_(w),
        shards_(1),
        incoming_(w->num_local()),
        recv_touched_(1),
        spans_(w->num_workers()) {
    init_shard(shards_[0]);
  }

  /// Queue a message for vertex `dst`, delivered next superstep. Safe
  /// from parallel compute threads: staging is keyed by the caller's
  /// current compute chunk, which exactly one thread runs.
  void send_message(KeyT dst, const ValT& m) {
    Shard& shard =
        shards_[static_cast<std::size_t>(detail::t_compute_chunk)];
    shard[static_cast<std::size_t>(w().owner_of(dst))].push_back(
        Wire{w().local_of(dst), m});
  }

  void begin_compute(int num_chunks) override {
    if (static_cast<int>(shards_.size()) < num_chunks) {
      const std::size_t old = shards_.size();
      shards_.resize(static_cast<std::size_t>(num_chunks));
      for (std::size_t s = old; s < shards_.size(); ++s) {
        init_shard(shards_[s]);
      }
    }
  }

  /// Messages delivered to the vertex currently being computed.
  [[nodiscard]] std::span<const ValT> get_iterator() const {
    return incoming_[w().current_local()];
  }

  [[nodiscard]] bool has_messages() const {
    return !incoming_[w().current_local()].empty();
  }

  void serialize() override {
    reset_receive_slots();
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      for (const auto& batch : s) total += batch.size();
    }
    w().run_comm_partitioned(
        total, static_cast<std::uint32_t>(w().num_workers()), nullptr,
        [this](std::uint32_t begin, std::uint32_t end, int) {
          emit_ranks(static_cast<int>(begin), static_cast<int>(end));
        });
  }

  /// Range-partitioned delivery (see CombinedMessage::deserialize).
  void deserialize() override {
    const int num_workers = w().num_workers();
    std::uint64_t total = 0;
    for (int from = 0; from < num_workers; ++from) {
      total += spans_.read(w().inbox(from), from);
    }
    const std::uint32_t n = worker_->num_local();
    w().run_comm_partitioned(
        total, n, &recv_touched_,
        [this, n](std::uint32_t lo, std::uint32_t hi, int slot) {
          spans_.for_each(lo, hi, n, name(),
                          [&](const Wire& wire) { apply(wire, slot); });
        });
  }

  // Cross-superstep state is the delivered-but-unread inboxes; staging
  // shards are empty at the superstep boundary where checkpoints run.
  void save_state(runtime::Buffer& out) override {
    out.write<std::uint32_t>(static_cast<std::uint32_t>(incoming_.size()));
    for (const auto& msgs : incoming_) out.write_vector(msgs);
  }

  void restore_state(runtime::Buffer& in) override {
    const auto n = in.read<std::uint32_t>();
    if (n != incoming_.size()) {
      throw runtime::ProtocolError(
          "DirectMessage restore: checkpoint shape does not match this "
          "rank's vertex count");
    }
    for (auto& touched : recv_touched_) touched.clear();
    for (std::uint32_t lidx = 0; lidx < n; ++lidx) {
      incoming_[lidx] = in.read_vector<ValT>();
      if (!incoming_[lidx].empty()) recv_touched_[0].push_back(lidx);
    }
  }

 private:
  struct Wire {
    std::uint32_t lidx;  ///< receiver's local index (ids are 32-bit too)
    ValT value;
  };

  /// One compute chunk's staged wires, bucketed by destination rank.
  using Shard = std::vector<std::vector<Wire>>;

  void init_shard(Shard& s) {
    s.resize(static_cast<std::size_t>(w().num_workers()));
  }

  /// Drop the messages the previous superstep delivered (they have been
  /// read during this superstep's compute phase).
  void reset_receive_slots() {
    for (auto& touched : recv_touched_) {
      for (const std::uint32_t lidx : touched) incoming_[lidx].clear();
      touched.clear();
    }
  }

  /// Emit destination ranks [begin, end): per rank, the shard batches
  /// concatenated in chunk order — the sequential send order.
  void emit_ranks(int begin, int end) {
    for (int to = begin; to < end; ++to) {
      const auto peer = static_cast<std::size_t>(to);
      runtime::Buffer& out = w().outbox(to);
      std::size_t count = 0;
      for (const Shard& s : shards_) count += s[peer].size();
      out.write<std::uint32_t>(static_cast<std::uint32_t>(count));
      for (Shard& s : shards_) {
        auto& batch = s[peer];
        if (!batch.empty()) {
          out.write_bytes(batch.data(), batch.size() * sizeof(Wire));
          batch.clear();
        }
      }
    }
  }

  void apply(const Wire& wire, int delivery_slot) {
    if (incoming_[wire.lidx].empty()) {
      recv_touched_[static_cast<std::size_t>(delivery_slot)].push_back(
          wire.lidx);
    }
    incoming_[wire.lidx].push_back(wire.value);
    worker_->activate_local(wire.lidx);  // atomic frontier word-OR
  }

  Worker<VertexT>* worker_;
  std::vector<Shard> shards_;                 ///< per compute chunk
  std::vector<std::vector<ValT>> incoming_;   ///< per local vertex
  std::vector<std::vector<std::uint32_t>> recv_touched_;  ///< per slot
  detail::WireSpans<Wire> spans_;
};

}  // namespace pregel::core
