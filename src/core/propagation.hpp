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
// The channel is the whole Fig. 7 model:
//     a_i  <- f(e_i, v_i)          (per-edge contribution)
//     u'   <- fold(h, u, a)        (commutative combine)
// Constructed without f it is the paper's Table II channel, f = identity
// ("without considering the edge weights"), and stores no weights.
// Constructed with f(value, weight) every add_edge() also records the
// edge's weight — e.g. single-source shortest paths with f = dist + w and
// h = min (algorithms/sssp.hpp, SsspPropagation).
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
class Propagation : public Channel {
 public:
  /// f(source value, edge weight) -> contribution to the target.
  using EdgeFn = std::function<ValT(const ValT&, graph::Weight)>;

  /// The Table II channel: values propagate unchanged (f = identity).
  Propagation(Worker<VertexT>* w, Combiner<ValT> combiner,
              std::string name = "propagation")
      : Propagation(w, std::move(combiner), EdgeFn{}, std::move(name)) {}

  /// The weighted model: an edge carries f(source value, edge weight).
  Propagation(Worker<VertexT>* w, Combiner<ValT> combiner, EdgeFn f,
              std::string name = "propagation")
      : Channel(w, std::move(name)),
        worker_(w),
        combiner_(std::move(combiner)),
        edge_fn_(std::move(f)),
        vals_(w->num_local(), combiner_.identity),
        in_queue_(w->num_local(), 0),
        staged_remote_(static_cast<std::size_t>(w->num_workers())),
        spans_(w->num_workers()) {
    on_edges([&](auto& edges) { edges.resize(w->num_local()); });
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
  /// superstep 1, mirroring the adjacency list). The weight is kept only
  /// when the channel has an f.
  void add_edge(KeyT dst, graph::Weight weight = 1) {
    if (edge_fn_) {
      weighted_.add(w(), dst, weight);
    } else {
      plain_.add(w(), dst, NoWeight{});
    }
  }

  /// Drop every registered edge (all local vertices). Algorithms whose
  /// propagation topology changes between rounds — e.g. SCC pruning edges
  /// that cross color classes — clear and re-add before re-seeding. Must
  /// be called while the propagation is quiescent (queue drained).
  void clear_edges() {
    plain_.clear();
    weighted_.clear();
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
    on_edges([this](const auto& edges) { drain(edges); });
    emit();
  }

  void deserialize() override {
    const int num_workers = w().num_workers();
    for (int from = 0; from < num_workers; ++from) {
      spans_.read(w().inbox(from), from);
    }
    const std::uint32_t n = w().num_local();
    spans_.for_each(0, n, n, name(), [this](const Record& r) {
      const ValT nv = combiner_(vals_[r.lidx], r.value);
      if (nv != vals_[r.lidx]) {
        vals_[r.lidx] = nv;
        push(r.lidx);
        worker_->activate_local(r.lidx);
      }
    });
  }

  bool again() override { return head_ < queue_.size(); }

  // ---- checkpoint/restore ------------------------------------------------
  // At the superstep boundary the propagation is quiescent (queue
  // drained, nothing staged), so what outlives it is the converged values
  // get_value() reads next superstep and the registered edges (with their
  // weights, when the channel has an f). Restore trusts none of it:
  // drain() indexes vals_, staged_remote_ and the peer slot arrays with
  // these edges.

  void save_state(runtime::Buffer& out) override {
    out.write_vector(vals_);
    on_edges([&](const auto& edges) { edges.save(out); });
  }

  void restore_state(runtime::Buffer& in) override {
    vals_ = in.read_vector<ValT>();
    if (vals_.size() != w().num_local()) {
      throw runtime::ProtocolError(
          name() + " restore: checkpoint shape does not match this rank's "
          "vertex count");
    }
    on_edges([&](auto& edges) { edges.restore(in, w(), name()); });
  }

 private:
  /// The weight slot of an edge registered without f: takes no space.
  struct NoWeight {};

  /// Every vertex's registered edges, split by owner. W is the weight an
  /// edge carries: graph::Weight with f, NoWeight without (so an
  /// unweighted edge is the bare local index or (owner, local index)).
  template <typename W>
  struct Edges {
    struct Local {
      std::uint32_t lidx;
      [[no_unique_address]] W weight;
    };
    struct Remote {
      int owner;
      std::uint32_t lidx;
      [[no_unique_address]] W weight;
    };
    std::vector<std::vector<Local>> local;
    std::vector<std::vector<Remote>> remote;

    void resize(std::uint32_t num_local) {
      local.resize(num_local);
      remote.resize(num_local);
    }

    void add(const WorkerBase& w, KeyT dst, W weight) {
      const std::uint32_t src = w.current_local();
      if (w.owner_of(dst) == w.rank()) {
        local[src].push_back(Local{w.local_of(dst), weight});
      } else {
        remote[src].push_back(
            Remote{w.owner_of(dst), w.local_of(dst), weight});
      }
    }

    void clear() {
      for (auto& l : local) l.clear();
      for (auto& r : remote) r.clear();
    }

    void save(runtime::Buffer& out) const {
      for (const auto& l : local) out.write_vector(l);
      for (const auto& r : remote) out.write_vector(r);
    }

    void restore(runtime::Buffer& in, const WorkerBase& w,
                 const std::string& name) {
      const auto refuse = [&](const std::string& why) {
        throw runtime::ProtocolError(name + " restore: " + why);
      };
      const auto check_index = [&](std::uint32_t lidx, std::uint32_t n) {
        if (lidx >= n) {
          refuse("edge names local index " + std::to_string(lidx) +
                 ", outside the " + std::to_string(n) + "-vertex slice");
        }
      };
      for (auto& l : local) {
        l = in.read_vector<Local>();
        for (const Local& e : l) check_index(e.lidx, w.num_local());
      }
      for (auto& r : remote) {
        r = in.read_vector<Remote>();
        for (const Remote& e : r) {
          if (e.owner < 0 || e.owner >= w.num_workers()) {
            refuse("edge names rank " + std::to_string(e.owner) +
                   ", outside the " + std::to_string(w.num_workers()) +
                   "-rank team");
          }
          check_index(e.lidx, w.dgraph().num_local(e.owner));
        }
      }
    }
  };
  // The unweighted checkpoint layout: a bare u32 per local edge and an
  // (int, u32) pair per remote one.
  static_assert(sizeof(typename Edges<NoWeight>::Local) ==
                sizeof(std::uint32_t));
  static_assert(sizeof(typename Edges<NoWeight>::Remote) ==
                sizeof(int) + sizeof(std::uint32_t));

  /// Runs fn on the edge set in use: weighted_ with f, else plain_.
  template <typename Fn>
  void on_edges(Fn&& fn) {
    if (edge_fn_) {
      fn(weighted_);
    } else {
      fn(plain_);
    }
  }

  /// The contribution an edge carries: the value itself without f.
  [[nodiscard]] const ValT& along(const ValT& v, NoWeight) const {
    return v;
  }
  [[nodiscard]] ValT along(const ValT& v, graph::Weight weight) const {
    return edge_fn_(v, weight);
  }

  void push(std::uint32_t lidx) {
    if (!in_queue_[lidx]) {
      in_queue_[lidx] = 1;
      queue_.push_back(lidx);
    }
  }

  /// Local propagation to fixpoint: drain the worker-local queue, moving
  /// contributions along local edges directly and accumulating (combined)
  /// updates for remote vertices. FIFO order matters: a BFS-like sweep
  /// spreads labels level by level, while a stack would push one label
  /// deep into a region and then redo the whole region when a better
  /// label arrives (exponential redundant work on skewed graphs).
  template <typename W>
  void drain(const Edges<W>& edges) {
    while (head_ < queue_.size()) {
      const std::uint32_t u = queue_[head_++];
      in_queue_[u] = 0;
      const ValT uv = vals_[u];
      for (const auto& e : edges.local[u]) {
        const ValT nv = combiner_(vals_[e.lidx], along(uv, e.weight));
        if (nv != vals_[e.lidx]) {
          vals_[e.lidx] = nv;
          push(e.lidx);
          worker_->activate_local(e.lidx);  // atomic frontier word-OR
        }
      }
      for (const auto& e : edges.remote[u]) {
        auto& acc = staged_remote_[static_cast<std::size_t>(e.owner)];
        if (acc.has[e.lidx]) {
          acc.vals[e.lidx] =
              combiner_(acc.vals[e.lidx], along(uv, e.weight));
        } else {
          acc.vals[e.lidx] = along(uv, e.weight);
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
          out.extend(acc.touched.size() * Record::kBytes);
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
        Record::put(p, lidx, acc.vals[lidx]);
        p += Record::kBytes;
        acc.vals[lidx] = combiner_.identity;
        acc.has[lidx] = 0;
      }
      acc.touched.clear();
    }
  }

  using Record = detail::WireRecord<ValT>;

  Worker<VertexT>* worker_;
  Combiner<ValT> combiner_;
  EdgeFn edge_fn_;  ///< empty: f = identity, no weights kept

  std::vector<ValT> vals_;
  std::vector<std::uint8_t> in_queue_;
  std::vector<std::uint32_t> queue_;  ///< FIFO: [head_, size) is pending
  std::size_t head_ = 0;
  Edges<NoWeight> plain_;          ///< sized without f, else empty
  Edges<graph::Weight> weighted_;  ///< sized with f, else empty

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
  /// Per-peer record sections of the round being delivered.
  detail::WireSpans<ValT> spans_;

  // Parallel compute staging for the shared seed queue (see
  // Channel::begin_compute).
  detail::ChunkStagedLog<std::uint32_t> par_;
};

}  // namespace pregel::core
