#pragma once
// PropagationW: the *full* Fig. 7 propagation model, with edge values.
//
// The paper's Table II shows the simplified channel "without considering
// the edge weights (for saving space)"; the high-level model in Fig. 7 is
//     a_i  <- f(e_i, v_i)          (per in-edge contribution)
//     u'   <- fold(h, u, a)        (commutative combine)
// This channel implements that model: every registered edge carries a
// weight, a user function f maps (source value, edge weight) to the
// propagated contribution, and the combiner h folds contributions into
// the target's value. The unweighted Propagation channel is the special
// case f = identity.
//
// Classic instance: single-source shortest paths with f = dist + w and
// h = min — label-correcting relaxation run to a global fixpoint inside
// one superstep's communication phase (see algorithms/sssp.hpp's
// SsspPropagation and the bench/micro_channels ablation).

// Parallel communication phase: like Propagation, the label-correcting
// drain stays sequential (its order defines the next round's bytes) and
// only the payload write-out fans over the comm pool; delivery stays
// sequential (received updates feed the BFS queue).

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/channel.hpp"
#include "core/types.hpp"
#include "core/worker.hpp"

namespace pregel::core {

template <typename VertexT, typename ValT>
  requires runtime::TriviallySerializable<ValT>
class PropagationW : public Channel {
 public:
  /// f(source value, edge weight) -> contribution to the target.
  using EdgeFn = std::function<ValT(const ValT&, graph::Weight)>;

  PropagationW(Worker<VertexT>* w, Combiner<ValT> combiner, EdgeFn f,
               std::string name = "propagation_w")
      : Channel(w, std::move(name)),
        worker_(w),
        combiner_(std::move(combiner)),
        edge_fn_(std::move(f)),
        vals_(w->num_local(), combiner_.identity),
        in_queue_(w->num_local(), 0),
        local_adj_(w->num_local()),
        remote_adj_(w->num_local()),
        staged_remote_(static_cast<std::size_t>(w->num_workers())) {
    for (int peer = 0; peer < w->num_workers(); ++peer) {
      auto& s = staged_remote_[static_cast<std::size_t>(peer)];
      const std::uint32_t peer_n = w->dgraph().num_local(peer);
      s.vals.assign(peer_n, combiner_.identity);
      s.has.assign(peer_n, 0);
    }
  }

  /// Register a weighted outgoing edge of the current vertex.
  void add_edge(KeyT dst, graph::Weight weight) {
    const std::uint32_t src = w().current_local();
    if (w().owner_of(dst) == w().rank()) {
      local_adj_[src].push_back(LocalEdge{w().local_of(dst), weight});
    } else {
      remote_adj_[src].push_back(
          RemoteEdge{w().owner_of(dst), w().local_of(dst), weight});
    }
  }

  /// Seed (overwrite) the current vertex's value; the propagation runs in
  /// this superstep's communication phase. Vertices never seeded hold the
  /// combiner identity.
  void set_value(const ValT& m) {
    const std::uint32_t lidx = w().current_local();
    vals_[lidx] = m;
    if (par_.active()) {
      par_.stage(lidx);
      return;
    }
    push(lidx);
  }

  /// The converged value, readable the superstep after seeding.
  [[nodiscard]] const ValT& get_value() const {
    return vals_[w().current_local()];
  }

  void begin_compute(int num_chunks) override { par_.open(num_chunks); }

  /// Replay seed pushes in chunk order (sequential vertex order); see
  /// Propagation::end_compute.
  void end_compute() override {
    par_.replay([this](std::uint32_t lidx) { push(lidx); });
  }

  /// Sequential drain, payload write-out fanned over the comm pool (see
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
  struct LocalEdge {
    std::uint32_t lidx;
    graph::Weight weight;
  };
  struct RemoteEdge {
    int owner;
    std::uint32_t lidx;
    graph::Weight weight;
  };
  struct StagedPeer {
    std::vector<ValT> vals;
    std::vector<std::uint8_t> has;
    std::vector<std::uint32_t> touched;
  };

  void push(std::uint32_t lidx) {
    if (!in_queue_[lidx]) {
      in_queue_[lidx] = 1;
      queue_.push_back(lidx);
    }
  }

  /// FIFO drain (see Propagation for why order matters): contributions
  /// move along local edges directly; remote contributions accumulate
  /// combined per receiver slot.
  void drain() {
    while (head_ < queue_.size()) {
      const std::uint32_t u = queue_[head_++];
      in_queue_[u] = 0;
      const ValT uv = vals_[u];
      for (const LocalEdge& e : local_adj_[u]) {
        const ValT contribution = edge_fn_(uv, e.weight);
        const ValT nv = combiner_(vals_[e.lidx], contribution);
        if (nv != vals_[e.lidx]) {
          vals_[e.lidx] = nv;
          push(e.lidx);
          worker_->activate_local(e.lidx);  // atomic frontier word-OR
        }
      }
      for (const RemoteEdge& e : remote_adj_[u]) {
        const ValT contribution = edge_fn_(uv, e.weight);
        auto& acc = staged_remote_[static_cast<std::size_t>(e.owner)];
        if (acc.has[e.lidx]) {
          acc.vals[e.lidx] = combiner_(acc.vals[e.lidx], contribution);
        } else {
          acc.vals[e.lidx] = contribution;
          acc.has[e.lidx] = 1;
          acc.touched.push_back(e.lidx);
        }
      }
    }
    queue_.clear();
    head_ = 0;
  }

  /// Counts + pre-sized segments, filled over the comm pool by contiguous
  /// destination-rank range (identical bytes for any slot count).
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
  EdgeFn edge_fn_;

  std::vector<ValT> vals_;
  std::vector<std::uint8_t> in_queue_;
  std::vector<std::uint32_t> queue_;
  std::size_t head_ = 0;
  std::vector<std::vector<LocalEdge>> local_adj_;
  std::vector<std::vector<RemoteEdge>> remote_adj_;
  std::vector<StagedPeer> staged_remote_;

  /// Payload segment base per destination rank (round-scoped scratch of
  /// the write-out).
  std::vector<std::byte*> seg_;

  // Parallel compute staging for the shared seed queue (see
  // Channel::begin_compute).
  detail::ChunkStagedLog<std::uint32_t> par_;
};

}  // namespace pregel::core
