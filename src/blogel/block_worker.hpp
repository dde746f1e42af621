#pragma once
// BlockWorker: the Blogel-style block-centric baseline [28] used in the
// paper's Table V (bottom) propagation comparison.
//
// Blogel opens the partition to the user: vertices are grouped into
// *blocks* (connected regions produced by a locality partitioner, see
// graph/partition.hpp), and the unit of computation is a user-written
// block-level program `b_compute` that may traverse the whole block and
// run an algorithm to local convergence before any message is exchanged.
// That is how Blogel beats plain Pregel on high-diameter inputs — and it
// is the technique the paper's Propagation channel packages behind a
// channel interface so that users do NOT have to write the (100+ line)
// block program themselves (Section V-B3).
//
// Voting: a block deactivates after b_compute and is re-activated when a
// message arrives for any of its member vertices.

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine_base.hpp"
#include "core/types.hpp"
#include "core/vertex.hpp"
#include "runtime/stats.hpp"

namespace pregel::blogel {

using core::KeyT;
using core::VertexId;

template <typename ValueT>
using Vertex = core::Vertex<ValueT>;

template <typename VertexT, typename MsgT>
  requires runtime::TriviallySerializable<MsgT>
class BlockWorker : public core::EngineBase,
                    public core::VertexColumns<VertexT> {
 public:
  using ValueT = typename VertexT::value_type;

  /// One block: the local indices of its member vertices.
  struct Block {
    std::uint32_t block_id = 0;
    std::vector<std::uint32_t> members;
  };

  BlockWorker() : core::EngineBase("BlockWorker") {
    staged_.resize(static_cast<std::size_t>(num_workers()));
    incoming_.resize(num_local());
  }

  // ---- the user's block program -------------------------------------------

  virtual void b_compute(Block& block) = 0;
  virtual void init_vertex(VertexT& /*v*/) {}

  // ---- configuration -------------------------------------------------------

  void set_combiner(core::Combiner<MsgT> c) { combiner_ = std::move(c); }

  // ---- access (local_vertex / for_each_vertex come from VertexColumns) -----

  /// Messages delivered to a member vertex in the previous superstep.
  [[nodiscard]] std::span<const MsgT> messages_of(std::uint32_t lidx) const {
    return incoming_[lidx];
  }

  void send_message(KeyT dst, const MsgT& m) {
    if (combiner_) {
      auto [it, inserted] = combine_staged_.try_emplace(dst, m);
      if (!inserted) it->second = (*combiner_)(it->second, m);
      return;
    }
    staged_[static_cast<std::size_t>(env_.dg->owner(dst))].push_back(
        Record::pack(env_.dg->local_index(dst), m));
  }

 protected:
  // ---- one superstep (EngineBase drives the loop) --------------------------

  void prepare() override { load(); }

  bool superstep() override {
    const auto c0 = Clock::now();
    // The block engine's frontier is block-grained: record the member
    // count of the blocks that run b_compute this superstep.
    std::uint64_t frontier = 0;
    for (const auto& block : blocks_) {
      if (block_active_[block.block_id]) frontier += block.members.size();
    }
    stats_.note_active(frontier);
    for (auto& block : blocks_) {
      if (!block_active_[block.block_id]) continue;
      block_active_[block.block_id] = 0;
      b_compute(block);
    }
    const auto c1 = Clock::now();
    communicate();
    ++stats_.comm_rounds;
    stats_.compute_seconds += seconds_between(c0, c1);
    stats_.comm_seconds += seconds_between(c1, Clock::now());
    bool any = false;
    for (const auto a : block_active_) any = any || (a != 0);
    return any;
  }

 private:
  /// Messages ship as packed (lidx, value) records through the channel
  /// engine's codec (channel.hpp's WireRecord).
  using Record = core::detail::WireRecord<MsgT>;

  void load() {
    this->init_columns(*env_.dg, env_.rank);
    const std::uint32_t n = env_.dg->num_local(env_.rank);
    // Group member vertices by block id; workers whose partition carries
    // no block information form one block per worker (whole-slice block).
    std::unordered_map<std::uint32_t, std::uint32_t> block_index;
    for (std::uint32_t lidx = 0; lidx < n; ++lidx) {
      VertexT v = this->handle(lidx);
      init_vertex(v);
      std::uint32_t b = env_.dg->block_of(v.id());
      if (b == graph::kNoBlock) b = 0;
      auto [it, inserted] =
          block_index.try_emplace(b, static_cast<std::uint32_t>(blocks_.size()));
      if (inserted) {
        blocks_.push_back(Block{it->second, {}});
      }
      blocks_[it->second].members.push_back(lidx);
    }
    lidx_block_.resize(n);
    for (const auto& block : blocks_) {
      for (const std::uint32_t lidx : block.members) {
        lidx_block_[lidx] = block.block_id;
      }
    }
    block_active_.assign(blocks_.size(), 1);
  }

  void communicate() {
    for (auto& touched : recv_touched_) {
      for (const std::uint32_t lidx : touched) incoming_[lidx].clear();
      touched.clear();
    }

    const auto s0 = Clock::now();
    const int workers = num_workers();
    if (combiner_) {
      for (const auto& [dst, val] : combine_staged_) {
        staged_[static_cast<std::size_t>(env_.dg->owner(dst))].push_back(
            Record::pack(env_.dg->local_index(dst), val));
      }
      combine_staged_.clear();
    }
    for (int to = 0; to < workers; ++to) {
      auto& out = env_.exchange->outbox(env_.rank, to);
      auto& batch = staged_[static_cast<std::size_t>(to)];
      out.write<std::uint32_t>(static_cast<std::uint32_t>(batch.size()));
      if (!batch.empty()) {
        out.write_bytes(batch.data(), batch.size() * Record::kBytes);
        batch.clear();
      }
    }

    const auto s1 = Clock::now();
    env_.exchange->exchange(env_.rank);
    const auto s2 = Clock::now();

    // Range-partitioned delivery (DESIGN.md section 8): record the raw
    // wire spans, then apply by contiguous lidx range, preserving the
    // one-slot (peer order, payload order) fold per vertex. Block wake-ups
    // cross range boundaries, so they go through an atomic_ref.
    std::uint64_t total = 0;
    for (int from = 0; from < workers; ++from) {
      total += wire_spans_.read(env_.exchange->inbox(env_.rank, from), from);
    }
    const std::uint32_t n = num_local();
    run_comm_partitioned(
        total, n, &recv_touched_,
        [this, n](std::uint32_t lo, std::uint32_t hi, int slot) {
          wire_spans_.for_each(lo, hi, n, "BlockWorker",
                               [&](const Record& r) { deliver(r, slot); });
        });
    stats_.serialize_seconds += seconds_between(s0, s1);
    stats_.exchange_seconds += seconds_between(s1, s2);
    stats_.deliver_seconds += seconds_between(s2, Clock::now());
  }

  void deliver(const Record& r, int delivery_slot) {
    auto& box = incoming_[r.lidx];
    if (combiner_ && !box.empty()) {
      box[0] = (*combiner_)(box[0], r.value);
    } else {
      if (box.empty()) {
        recv_touched_[static_cast<std::size_t>(delivery_slot)].push_back(
            r.lidx);
      }
      box.push_back(r.value);
    }
    // Wake the block: concurrent delivery slots may wake the same block
    // from different vertex ranges, so the store is atomic (relaxed — the
    // pool's join orders it before the next superstep's reads).
    std::atomic_ref<std::uint8_t>(block_active_[lidx_block_[r.lidx]])
        .store(1, std::memory_order_relaxed);
  }

  // Vertex state (values + frontier) lives in core::VertexColumns.
  std::vector<Block> blocks_;
  std::vector<std::uint32_t> lidx_block_;
  std::vector<std::uint8_t> block_active_;

  std::optional<core::Combiner<MsgT>> combiner_;
  std::unordered_map<KeyT, MsgT> combine_staged_;
  std::vector<std::vector<typename Record::Packed>> staged_;
  std::vector<std::vector<MsgT>> incoming_;
  std::vector<std::vector<std::uint32_t>> recv_touched_{1};  ///< per slot
  /// Raw wire span per peer (round-scoped delivery scratch).
  core::detail::WireSpans<MsgT> wire_spans_{num_workers()};
};

}  // namespace pregel::blogel
