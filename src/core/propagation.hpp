#pragma once
// Propagation: optimized channel for propagation-based algorithms
// (Section IV-C3, Fig. 7). Combines the GAS-style abstraction with
// block-level execution: inside one superstep, each worker runs a
// BFS-like traversal over its own subgraph propagating values as far as
// they go locally, batches the updates that cross worker boundaries, and
// iterates communication rounds until the whole propagation reaches a
// global fixpoint. The algorithm above it then converges in O(1)
// supersteps instead of O(diameter).
//
// Requirements on the combiner h: commutative and *monotone-idempotent*
// in the sense that re-applying already-seen values must not change a
// converged result (min/max/or are the intended instances) — the same
// requirement Blogel's block programs and GAS's async mode impose.

// Parallel communication phase (DESIGN.md section 8): the worker-local
// BFS drain is inherently sequential (its FIFO order defines the staged
// updates AND the next round's wire bytes), so only the payload write-out
// fans over the pool — each thread owns a contiguous destination-rank
// range and fills pre-sized buffer segments. Delivery stays sequential on
// purpose: received updates push into the BFS queue, whose order feeds the
// following round's bytes, so a range-partitioned delivery would change
// the wire (not the fixpoint).

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/channel.hpp"
#include "core/types.hpp"
#include "core/worker.hpp"

namespace pregel::core {

template <typename VertexT, typename ValT>
  requires runtime::TriviallySerializable<ValT>
class Propagation : public Channel {
 public:
  Propagation(Worker<VertexT>* w, Combiner<ValT> combiner,
              std::string name = "propagation")
      : Channel(w, std::move(name)),
        worker_(w),
        combiner_(std::move(combiner)),
        vals_(w->num_local(), combiner_.identity),
        in_queue_(w->num_local(), 0),
        local_adj_(w->num_local()),
        remote_adj_(w->num_local()),
        staged_remote_(static_cast<std::size_t>(w->num_workers())) {
    // Remote updates are staged in flat per-peer slot arrays (the receiver
    // local-index space is known), so combining a pending update is an
    // array write, not a hash lookup.
    for (int peer = 0; peer < w->num_workers(); ++peer) {
      auto& s = staged_remote_[static_cast<std::size_t>(peer)];
      const std::uint32_t peer_n = w->dgraph().num_local(peer);
      s.vals.assign(peer_n, combiner_.identity);
      s.has.assign(peer_n, 0);
    }
  }

  /// Register an outgoing edge of the current vertex (typically in
  /// superstep 1, mirroring the adjacency list).
  void add_edge(KeyT dst) {
    const std::uint32_t src = w().current_local();
    if (w().owner_of(dst) == w().rank()) {
      local_adj_[src].push_back(w().local_of(dst));
    } else {
      remote_adj_[src].push_back(
          RemoteEdge{w().owner_of(dst), w().local_of(dst)});
    }
  }

  /// Drop every registered edge (all local vertices). Algorithms whose
  /// propagation topology changes between rounds — e.g. SCC pruning edges
  /// that cross color classes — clear and re-add before re-seeding. Must
  /// be called while the propagation is quiescent (queue drained).
  void clear_edges() {
    for (auto& l : local_adj_) l.clear();
    for (auto& r : remote_adj_) r.clear();
  }

  /// Seed (overwrite) the current vertex's value and mark it active for
  /// the propagation that runs in this superstep's communication phase.
  void set_value(const ValT& m) {
    const std::uint32_t lidx = w().current_local();
    vals_[lidx] = m;
    if (par_.active()) {
      par_.stage(lidx);
      return;
    }
    push(lidx);
  }

  void begin_compute(int num_chunks) override { par_.open(num_chunks); }

  /// Replay seed pushes in chunk order so the BFS queue starts in the
  /// sequential (vertex) order. add_edge() writes only per-vertex
  /// adjacency and needs no staging.
  void end_compute() override {
    par_.replay([this](std::uint32_t lidx) { push(lidx); });
  }

  /// The converged value, readable the superstep after seeding.
  [[nodiscard]] const ValT& get_value() const {
    return vals_[w().current_local()];
  }

  /// Sequential drain, payload write-out fanned over the pool (see
  /// header note).
  void serialize() override {
    drain();
    emit();
  }

  void deserialize() override {
    const int num_workers = w().num_workers();
    for (int from = 0; from < num_workers; ++from) {
      runtime::Buffer& in = w().inbox(from);
      const auto n = in.read<std::uint32_t>();
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto lidx = in.read<std::uint32_t>();
        const auto val = in.read<ValT>();
        detail::check_local_index(lidx, vals_.size(), name());
        const ValT nv = combiner_(vals_[lidx], val);
        if (nv != vals_[lidx]) {
          vals_[lidx] = nv;
          push(lidx);
          worker_->activate_local(lidx);
        }
      }
    }
  }

  bool again() override { return head_ < queue_.size(); }

 private:
  struct RemoteEdge {
    int owner;
    std::uint32_t lidx;
  };

  void push(std::uint32_t lidx) {
    if (!in_queue_[lidx]) {
      in_queue_[lidx] = 1;
      queue_.push_back(lidx);
    }
  }

  /// Local propagation to fixpoint: drain the worker-local queue, moving
  /// values along local edges directly and accumulating (combined)
  /// updates for remote vertices. FIFO order matters: a BFS-like sweep
  /// spreads labels level by level, while a stack would push one label
  /// deep into a region and then redo the whole region when a better
  /// label arrives (exponential redundant work on skewed graphs).
  void drain() {
    while (head_ < queue_.size()) {
      const std::uint32_t u = queue_[head_++];
      in_queue_[u] = 0;
      const ValT uv = vals_[u];
      for (const std::uint32_t t : local_adj_[u]) {
        const ValT nv = combiner_(vals_[t], uv);
        if (nv != vals_[t]) {
          vals_[t] = nv;
          push(t);
          worker_->activate_local(t);  // atomic frontier word-OR
        }
      }
      for (const RemoteEdge& e : remote_adj_[u]) {
        auto& acc = staged_remote_[static_cast<std::size_t>(e.owner)];
        if (acc.has[e.lidx]) {
          acc.vals[e.lidx] = combiner_(acc.vals[e.lidx], uv);
        } else {
          acc.vals[e.lidx] = uv;
          acc.has[e.lidx] = 1;
          acc.touched.push_back(e.lidx);
        }
      }
    }
    queue_.clear();
    head_ = 0;
  }

  /// Ship the staged remote updates: counts and pre-sized segments first,
  /// then the (lidx, value) records in touched order — filled over the
  /// pool by contiguous destination-rank range, so the bytes do not
  /// depend on the slot count.
  void emit() {
    const int num_workers = w().num_workers();
    if (seg_.empty()) {
      seg_.assign(static_cast<std::size_t>(num_workers), nullptr);
    }
    std::uint64_t total = 0;
    for (int to = 0; to < num_workers; ++to) {
      runtime::Buffer& out = w().outbox(to);
      const auto& acc = staged_remote_[static_cast<std::size_t>(to)];
      out.write<std::uint32_t>(
          static_cast<std::uint32_t>(acc.touched.size()));
      seg_[static_cast<std::size_t>(to)] =
          out.extend(acc.touched.size() * kEntryBytes);
      total += acc.touched.size();
    }
    w().run_comm_partitioned(
        total, static_cast<std::uint32_t>(num_workers), nullptr,
        [this](std::uint32_t begin, std::uint32_t end, int) {
          fill_ranks(static_cast<int>(begin), static_cast<int>(end));
        });
  }

  void fill_ranks(int begin, int end) {
    for (int to = begin; to < end; ++to) {
      auto& acc = staged_remote_[static_cast<std::size_t>(to)];
      std::byte* p = seg_[static_cast<std::size_t>(to)];
      for (const std::uint32_t lidx : acc.touched) {
        std::memcpy(p, &lidx, sizeof(std::uint32_t));
        std::memcpy(p + sizeof(std::uint32_t), &acc.vals[lidx],
                    sizeof(ValT));
        p += kEntryBytes;
        acc.vals[lidx] = combiner_.identity;
        acc.has[lidx] = 0;
      }
      acc.touched.clear();
    }
  }

  static constexpr std::size_t kEntryBytes =
      sizeof(std::uint32_t) + sizeof(ValT);

  Worker<VertexT>* worker_;
  Combiner<ValT> combiner_;

  std::vector<ValT> vals_;
  std::vector<std::uint8_t> in_queue_;
  std::vector<std::uint32_t> queue_;  ///< FIFO: [head_, size) is pending
  std::size_t head_ = 0;
  std::vector<std::vector<std::uint32_t>> local_adj_;
  std::vector<std::vector<RemoteEdge>> remote_adj_;

  /// Pending combined updates for one destination worker, indexed by the
  /// receiver's local index.
  struct StagedPeer {
    std::vector<ValT> vals;
    std::vector<std::uint8_t> has;
    std::vector<std::uint32_t> touched;
  };
  std::vector<StagedPeer> staged_remote_;

  /// Payload segment base per destination rank (round-scoped scratch of
  /// the write-out).
  std::vector<std::byte*> seg_;

  // Parallel compute staging for the shared seed queue (see
  // Channel::begin_compute).
  detail::ChunkStagedLog<std::uint32_t> par_;
};

}  // namespace pregel::core
