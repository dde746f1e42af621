#pragma once
// CombinedMessage: message passing with a per-channel combiner (Table I).
//
// This is the channel that removes Pregel's "one global combiner per
// program" restriction (Section II-B): each CombinedMessage instance owns
// its combiner, so a multi-phase algorithm can combine one message kind
// while another kind flows uncombined through a different channel.
//
// Combining happens on both sides: the sender merges values for the same
// destination vertex before serializing, and the receiver merges batches
// from different workers.
//
// Staging is sharded per (compute chunk, destination rank) — the parallel
// communication phase of DESIGN.md section 8:
//
//  * Exact combiners (Combiner::exact — min/max/or, integer sums) combine
//    AT STAGE TIME: each chunk keeps a dense partial keyed by the
//    receiver's local index, so a send is an array write, not a hash
//    lookup. The partial's value/flag arrays are dense — O(receiver
//    slice) per (chunk, destination rank) pair that sends at all, lazily
//    allocated and reused for the whole run — while per-superstep work
//    (merge + reset, via the touched lists) stays O(unique
//    destinations). A future hash-partial mode is the knob to pull if
//    chunk-count x slice-size dense arrays ever dominate on huge graphs.
//  * Inexact combiners (floating-point sums) keep per-chunk raw message
//    logs; the merge replays them message by message in chunk order, which
//    is exactly the sequential fold (chunks are contiguous and
//    ascending, whichever slot executed them), so float results stay
//    bitwise identical across thread counts and schedules. Trade-off: the
//    logs stage O(messages) per superstep rather than O(unique
//    destinations) — combining them earlier would regroup the float fold
//    and break the bitwise invariant. (Parallel compute already staged
//    O(messages) in the slot-keyed staging era; what changed is that the
//    sequential path now does too.)
//
// serialize() merges the shards per destination rank — in parallel over
// contiguous destination-rank ranges when the engine runs the comm phase
// with threads — and emits one combined (lidx, value) pair per unique
// destination in first-touch order, which is itself independent of the
// thread count. Delivery range-partitions the local vertex space; each
// slot scans the peer inboxes in peer order and applies only its own
// range, preserving the sequential per-vertex application order without
// atomics on values.
//
// Pull protocol (DESIGN.md section 9): a CombinedMessage constructed with
// an edge transform f(value, weight) additionally supports gather-mode
// supersteps. The algorithm calls publish(value) once per vertex instead
// of looping its out-edges; in push mode publish() expands to the classic
// per-edge send_message(e.dst, f(value, e.weight)) loop (byte-identical
// wire traffic), while in pull mode it just stores the value in an
// epoch-stamped column and every destination vertex gathers f(published,
// weight) from its in-neighbors during deserialize — rank-local edges
// ship ZERO wire bytes; remote in-neighbors arrive via a compact
// boundary exchange of (src lidx, value) pairs per peer rank. The
// in-edge index is served by the cached CsrGraph::transpose() of per-rank
// forward slices; remote ranks' slices are learned through a one-time
// structure handshake prepended to the first pull-round payload (a
// localized TCP rank has no other way to know its remote in-edges). The
// gather replays the push fold order exactly — per source rank a sub-fold
// in (src lidx, edge position) order, sub-results folded in rank order —
// so results are bitwise identical to push even for float-sum combiners.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/channel.hpp"
#include "core/types.hpp"
#include "core/worker.hpp"
#include "graph/csr.hpp"

namespace pregel::core {

template <typename VertexT, typename ValT>
  requires runtime::TriviallySerializable<ValT>
class CombinedMessage : public Channel {
 public:
  /// How a published value turns into the contribution one out-edge
  /// carries: f(value, edge weight). PageRank passes the identity (every
  /// out-edge carries the same share), SSSP passes dist + w.
  using EdgeFn = std::function<ValT(const ValT&, graph::Weight)>;

  CombinedMessage(Worker<VertexT>* w, Combiner<ValT> combiner,
                  std::string name = "combined")
      : Channel(w, std::move(name)),
        worker_(w),
        combiner_(std::move(combiner)),
        slot_(w->num_local(), combiner_.identity),
        has_(w->num_local(), 0),
        shards_(1),
        merge_(static_cast<std::size_t>(w->num_workers())),
        recv_touched_(1),
        spans_(w->num_workers()) {
    init_shard(shards_[0]);
  }

  /// Pull-capable form: the edge transform makes the channel's messaging
  /// pattern explicit (one value per vertex, expanded per out-edge), which
  /// is what lets the engine run dense supersteps in gather mode.
  /// Algorithms using this form call publish() instead of the per-edge
  /// send_message() loop.
  CombinedMessage(Worker<VertexT>* w, Combiner<ValT> combiner, EdgeFn f,
                  std::string name = "combined")
      : CombinedMessage(w, std::move(combiner), std::move(name)) {
    edge_fn_ = std::move(f);
  }

  /// Send m to dst; values for the same destination are combined. Safe
  /// from parallel compute threads: staging is keyed by the caller's
  /// current compute chunk (run by exactly one thread). Only valid in
  /// push supersteps — during a pull
  /// superstep senders publish and receivers gather, so a stray per-edge
  /// send would silently vanish; throw instead.
  void send_message(KeyT dst, const ValT& m) {
    if (direction_ == Direction::kPull) {
      throw std::logic_error(
          "CombinedMessage::send_message called during a pull superstep — "
          "pull-capable channels must stage per-vertex values via publish()");
    }
    Shard& shard =
        shards_[static_cast<std::size_t>(detail::t_compute_chunk)];
    const auto to = static_cast<std::size_t>(w().owner_of(dst));
    const std::uint32_t lidx = w().local_of(dst);
    if (combiner_.exact) {
      // Stage-time combining into the chunk's dense per-destination
      // partial (lazily sized to the receiving rank's slice).
      Partial& p = shard.partial[to];
      if (p.vals.empty()) {
        const std::uint32_t n = peer_local_count(static_cast<int>(to));
        p.vals.assign(n, combiner_.identity);
        p.has.assign(n, 0);
      }
      if (p.has[lidx]) {
        p.vals[lidx] = combiner_(p.vals[lidx], m);
      } else {
        p.vals[lidx] = m;
        p.has[lidx] = 1;
        p.touched.push_back(lidx);
      }
    } else {
      shard.log[to].push_back(Wire{lidx, m});
    }
  }

  /// Publish the current vertex's value for this superstep (pull-capable
  /// channels only). Push superstep: expands to the per-edge
  /// send_message(e.dst, f(value, e.weight)) loop — wire bytes identical
  /// to hand-written sends. Pull superstep: stores the value in the
  /// epoch-stamped published column (one exclusive slot per vertex, so
  /// parallel compute threads need no staging) for receivers to gather.
  void publish(const ValT& value) {
    if (!pull_capable()) {
      throw std::logic_error(
          "CombinedMessage::publish requires the pull-capable constructor "
          "(the one taking an edge transform)");
    }
    const std::uint32_t lidx = w().current_local();
    if (direction_ == Direction::kPull) {
      published_[lidx] = value;
      pub_epoch_[lidx] = cur_epoch_;
      return;
    }
    for (const graph::Edge e : worker_->dgraph().out(w().rank(), lidx)) {
      send_message(e.dst, edge_fn_(value, e.weight));
    }
  }

  [[nodiscard]] bool pull_capable() const override {
    return static_cast<bool>(edge_fn_);
  }

  /// Engine announcement of this superstep's collective direction. The
  /// first pull superstep lazily builds the sender-side pull state (the
  /// published columns, the per-peer boundary lists and the self in-edge
  /// slice); remote slices follow via the wire handshake.
  void set_direction(Direction dir) override {
    direction_ = dir;
    if (dir == Direction::kPull) ensure_pull_ready();
  }

  /// Grow the shard set to one per compute chunk. No replay happens in
  /// end_compute(): staging is already chunk-keyed, and the
  /// serialize-time merge walks the shards in chunk order (the sequential
  /// message order, whichever slot ran each chunk).
  void begin_compute(int num_chunks) override {
    if (static_cast<int>(shards_.size()) < num_chunks) {
      const std::size_t old = shards_.size();
      shards_.resize(static_cast<std::size_t>(num_chunks));
      for (std::size_t s = old; s < shards_.size(); ++s) {
        init_shard(shards_[s]);
      }
    }
  }

  /// Combined value delivered to the current vertex (combiner identity if
  /// nothing arrived; check has_message() to distinguish).
  [[nodiscard]] const ValT& get_message() const {
    return slot_[w().current_local()];
  }

  [[nodiscard]] bool has_message() const {
    return has_[w().current_local()] != 0;
  }

  /// Fan the per-destination-rank merge + emit over the pool: each
  /// slot owns a contiguous destination-rank range and writes into its
  /// ranks' outboxes exclusively, so the bytes are independent of the
  /// slot count.
  void serialize() override {
    reset_receive_slots();
    if (direction_ == Direction::kPull) {
      // Boundary payloads are tiny (one pair per published boundary
      // vertex); the rank fan-out still applies and bytes are identical.
      std::uint64_t staged = 0;
      for (const auto& b : boundary_) staged += b.size();
      w().run_comm_partitioned(
          staged, static_cast<std::uint32_t>(w().num_workers()), nullptr,
          [this](std::uint32_t begin, std::uint32_t end, int) {
            emit_pull_ranks(static_cast<int>(begin), static_cast<int>(end));
          });
      return;
    }
    w().run_comm_partitioned(
        staged_items(), static_cast<std::uint32_t>(w().num_workers()),
        nullptr, [this](std::uint32_t begin, std::uint32_t end, int) {
          emit_ranks(static_cast<int>(begin), static_cast<int>(end));
        });
  }

  /// Range-partitioned delivery: record each peer payload's raw span,
  /// then every pool slot scans all spans in peer order applying only the
  /// wires whose destination falls in its contiguous local-vertex range.
  /// In pull mode the gather itself is the range-partitioned work — each
  /// destination vertex's fold is independent, so the fan-out is bitwise
  /// free.
  void deserialize() override {
    if (direction_ == Direction::kPull) {
      absorb_pull_payloads();
      w().run_comm_partitioned(
          pull_in_edges_, num_local_limit(), &recv_touched_,
          [this](std::uint32_t lo, std::uint32_t hi, int slot) {
            gather_range(lo, hi, slot);
          });
      ++cur_epoch_;
      return;
    }
    const int num_workers = w().num_workers();
    std::uint64_t total = 0;
    for (int from = 0; from < num_workers; ++from) {
      total += spans_.read(w().inbox(from), from);
    }
    w().run_comm_partitioned(
        total, num_local_limit(), &recv_touched_,
        [this](std::uint32_t lo, std::uint32_t hi, int slot) {
          spans_.for_each(lo, hi, num_local_limit(), name(),
                          [&](const Wire& wire) { apply(wire, slot); });
        });
  }

 private:
  struct Wire {
    std::uint32_t lidx;
    ValT value;
  };

  /// One slot's pending combined values for one destination rank.
  struct Partial {
    std::vector<ValT> vals;
    std::vector<std::uint8_t> has;
    std::vector<std::uint32_t> touched;  ///< first-touch order
  };

  /// One compute slot's staging, sharded by destination rank.
  struct Shard {
    std::vector<Partial> partial;          ///< exact combiners
    std::vector<std::vector<Wire>> log;    ///< inexact combiners
  };

  void init_shard(Shard& s) {
    const auto workers = static_cast<std::size_t>(w().num_workers());
    s.partial.resize(workers);
    s.log.resize(workers);
  }

  [[nodiscard]] std::uint32_t peer_local_count(int rank) const {
    return worker_->dgraph().num_local(rank);
  }

  [[nodiscard]] std::uint32_t num_local_limit() const {
    return worker_->num_local();
  }

  [[nodiscard]] std::uint64_t staged_items() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      for (const Partial& p : s.partial) total += p.touched.size();
      for (const auto& log : s.log) total += log.size();
    }
    return total;
  }

  /// Drop the receive state the previous superstep's compute read.
  void reset_receive_slots() {
    for (auto& touched : recv_touched_) {
      for (const std::uint32_t lidx : touched) {
        slot_[lidx] = combiner_.identity;
        has_[lidx] = 0;
      }
      touched.clear();
    }
  }

  // ---- checkpoint/restore ------------------------------------------------
  // Cross-superstep state is exactly the receive side: the combined
  // value + presence flag per local vertex (messages delivered at the
  // end of superstep N, consumed by compute in N+1). Staging shards are
  // empty at the boundary and the pull handshake re-publishes lazily on
  // every rank after a restore (all ranks restart from the same epoch
  // with fresh channel objects), so neither is persisted.

  void save_state(runtime::Buffer& out) override {
    out.write_vector(slot_);
    out.write_vector(has_);
  }

  void restore_state(runtime::Buffer& in) override {
    slot_ = in.read_vector<ValT>();
    has_ = in.read_vector<std::uint8_t>();
    if (slot_.size() != num_local_limit() || has_.size() != slot_.size()) {
      throw runtime::ProtocolError(
          "CombinedMessage restore: checkpoint shape does not match this "
          "rank's vertex count");
    }
    for (auto& touched : recv_touched_) touched.clear();
    for (std::uint32_t lidx = 0; lidx < has_.size(); ++lidx) {
      if (has_[lidx]) recv_touched_[0].push_back(lidx);
    }
  }

  /// Merge every shard's staging for destination ranks [begin, end) and
  /// emit one combined wire pair per unique destination. Walking shards
  /// in chunk order makes both the fold sequence (raw logs: message by
  /// message) and the first-touch wire order exactly the sequential ones,
  /// so bytes and float bits are independent of the thread count and of
  /// which slot executed each chunk.
  void emit_ranks(int begin, int end) {
    for (int to = begin; to < end; ++to) {
      const auto peer = static_cast<std::size_t>(to);
      if (combiner_.exact && shards_.size() == 1) {
        // Single-shard exact staging: the chunk partial already holds the
        // final combined values in first-touch order — emit it directly.
        Partial& p = shards_[0].partial[peer];
        runtime::Buffer& direct = w().outbox(to);
        direct.write<std::uint32_t>(
            static_cast<std::uint32_t>(p.touched.size()));
        for (const std::uint32_t lidx : p.touched) {
          direct.write(Wire{lidx, p.vals[lidx]});
          p.vals[lidx] = combiner_.identity;
          p.has[lidx] = 0;
        }
        p.touched.clear();
        continue;
      }
      Partial& m = merge_[peer];
      if (m.vals.empty()) {
        const std::uint32_t n = peer_local_count(to);
        m.vals.assign(n, combiner_.identity);
        m.has.assign(n, 0);
      }
      for (Shard& shard : shards_) {
        Partial& p = shard.partial[peer];
        for (const std::uint32_t lidx : p.touched) {
          fold_into(m, lidx, p.vals[lidx]);
          p.vals[lidx] = combiner_.identity;
          p.has[lidx] = 0;
        }
        p.touched.clear();
        auto& log = shard.log[peer];
        for (const Wire& wire : log) fold_into(m, wire.lidx, wire.value);
        log.clear();
      }
      runtime::Buffer& out = w().outbox(to);
      out.write<std::uint32_t>(static_cast<std::uint32_t>(m.touched.size()));
      for (const std::uint32_t lidx : m.touched) {
        out.write(Wire{lidx, m.vals[lidx]});
        m.vals[lidx] = combiner_.identity;
        m.has[lidx] = 0;
      }
      m.touched.clear();
    }
  }

  void fold_into(Partial& m, std::uint32_t lidx, const ValT& v) {
    if (m.has[lidx]) {
      m.vals[lidx] = combiner_(m.vals[lidx], v);
    } else {
      m.vals[lidx] = v;
      m.has[lidx] = 1;
      m.touched.push_back(lidx);
    }
  }

  /// Receiver-side apply of one in-range wire pair into the delivery
  /// slot's state.
  void apply(const Wire& wire, int delivery_slot) {
    if (has_[wire.lidx]) {
      slot_[wire.lidx] = combiner_(slot_[wire.lidx], wire.value);
    } else {
      slot_[wire.lidx] = wire.value;
      has_[wire.lidx] = 1;
      recv_touched_[static_cast<std::size_t>(delivery_slot)].push_back(
          wire.lidx);
    }
    worker_->activate_local(wire.lidx);  // atomic frontier word-OR
  }

  // ---- pull protocol (DESIGN.md section 9) --------------------------------

  /// One out-edge of this rank whose destination a peer owns, in the
  /// peer's coordinates — the unit of the one-time structure handshake.
  struct PullEdge {
    std::uint32_t src_lidx;  ///< sender-rank local index of the source
    std::uint32_t dst_lidx;  ///< receiver-rank local index of the target
    graph::Weight weight;
  };

  /// First pull superstep: build everything derivable from the rank's own
  /// adjacency — the published columns, the per-peer boundary vertex
  /// lists, the per-peer handshake edge lists, and the self in-edge slice
  /// (a forward CSR over the rank-local edges whose cached transpose is
  /// the gather index). Works identically on a localized TCP view: only
  /// out(rank, lidx) and the global partition id maps are touched.
  void ensure_pull_ready() {
    if (pull_ready_) return;
    pull_ready_ = true;
    const int num_workers = w().num_workers();
    const int me = w().rank();
    const std::uint32_t n = num_local_limit();
    published_.assign(n, ValT{});
    pub_epoch_.assign(n, 0);
    cur_epoch_ = 1;
    boundary_.assign(static_cast<std::size_t>(num_workers), {});
    handshake_out_.assign(static_cast<std::size_t>(num_workers), {});
    slices_.assign(static_cast<std::size_t>(num_workers), {});
    gather_index_.assign(static_cast<std::size_t>(num_workers), nullptr);
    peer_vals_.resize(static_cast<std::size_t>(num_workers));
    peer_epoch_.resize(static_cast<std::size_t>(num_workers));

    std::vector<std::uint64_t> self_offsets(n + 1, 0);
    std::vector<graph::VertexId> self_dst;
    std::vector<graph::Weight> self_weights;
    for (std::uint32_t lidx = 0; lidx < n; ++lidx) {
      for (const graph::Edge e : worker_->dgraph().out(me, lidx)) {
        const int to = w().owner_of(e.dst);
        const std::uint32_t dst_lidx = w().local_of(e.dst);
        if (to == me) {
          self_dst.push_back(dst_lidx);
          self_weights.push_back(e.weight);
          continue;
        }
        const auto peer = static_cast<std::size_t>(to);
        handshake_out_[peer].push_back(PullEdge{lidx, dst_lidx, e.weight});
        if (boundary_[peer].empty() || boundary_[peer].back() != lidx) {
          boundary_[peer].push_back(lidx);  // lidx ascending by construction
        }
      }
      self_offsets[lidx + 1] = self_dst.size();
    }
    install_slice(me, std::move(self_offsets), std::move(self_dst),
                  std::move(self_weights));
    for (int p = 0; p < num_workers; ++p) {
      if (p == me) continue;
      peer_vals_[static_cast<std::size_t>(p)].assign(peer_local_count(p),
                                                     ValT{});
      peer_epoch_[static_cast<std::size_t>(p)].assign(peer_local_count(p), 0);
    }
  }

  /// Register rank r's forward slice (rows = r's source vertices over
  /// `rows` ids, destinations = this rank's local indices) and cache its
  /// transpose as the gather index: transposed row d lists d's in-edges
  /// from rank r as Edge{src lidx, weight}, in (src lidx, edge position)
  /// order thanks to the counting sort's stability — exactly the order
  /// rank r's push serialize folds its contributions in.
  void install_slice(int r, std::vector<std::uint64_t> offsets,
                     std::vector<graph::VertexId> dst,
                     std::vector<graph::Weight> weights) {
    const auto slot = static_cast<std::size_t>(r);
    pull_in_edges_ += dst.size();
    slices_[slot] = graph::CsrGraph::from_arrays(
        std::move(offsets), std::move(dst), std::move(weights));
    gather_index_[slot] = &slices_[slot].transpose();
  }

  /// Emit the pull-round payload for destination ranks [begin, end): for
  /// each peer, the one-time handshake section (this rank's out-edges into
  /// the peer, in the push fold order), then the boundary values section —
  /// one (src lidx, value) pair per boundary vertex published this epoch.
  /// The self payload is ZERO bytes: rank-local edges are gathered
  /// straight from the published column, nothing rides the wire.
  void emit_pull_ranks(int begin, int end) {
    const int me = w().rank();
    for (int to = begin; to < end; ++to) {
      if (to == me) continue;
      const auto peer = static_cast<std::size_t>(to);
      runtime::Buffer& out = w().outbox(to);
      if (!handshake_sent_) {
        const auto& edges = handshake_out_[peer];
        out.write<std::uint64_t>(edges.size());
        if (!edges.empty()) {
          out.write_bytes(edges.data(), edges.size() * sizeof(PullEdge));
        }
      }
      const std::size_t count_at = out.reserve_u32();
      std::uint32_t count = 0;
      for (const std::uint32_t lidx : boundary_[peer]) {
        if (pub_epoch_[lidx] != cur_epoch_) continue;
        out.write(Wire{lidx, published_[lidx]});
        ++count;
      }
      out.patch_u32(count_at, count);
    }
    if (end == w().num_workers()) {
      // The last range finishing marks the handshake shipped; with the
      // parallel fan-out every range checked the flag before any write,
      // and the flag flips only after all emits of the round.
      handshake_done_pending_ = true;
    }
  }

  /// Read every peer's pull payload: the one-time handshake (building the
  /// peer's forward slice + cached-transpose gather index), then the
  /// boundary values, stamped into the peer value table at the current
  /// epoch.
  void absorb_pull_payloads() {
    if (handshake_done_pending_) {
      handshake_sent_ = true;
      handshake_done_pending_ = false;
      handshake_out_.clear();  // one-time payload, free the staging
    }
    const int num_workers = w().num_workers();
    const int me = w().rank();
    const std::uint32_t n = num_local_limit();
    for (int from = 0; from < num_workers; ++from) {
      if (from == me) continue;
      const auto peer = static_cast<std::size_t>(from);
      runtime::Buffer& in = w().inbox(from);
      if (!handshake_received_) {
        const auto edge_count = in.read<std::uint64_t>();
        // Bound the peer's count by its payload before allocating for it.
        if (edge_count > in.remaining() / sizeof(PullEdge)) {
          throw runtime::ProtocolError(
              name() + ": pull handshake edge count " +
              std::to_string(edge_count) + " exceeds its payload");
        }
        const std::uint32_t n_from = peer_local_count(from);
        const std::uint32_t rows = std::max(n_from, n);
        std::vector<std::uint64_t> offsets(rows + 1, 0);
        std::vector<graph::VertexId> dst(edge_count);
        std::vector<graph::Weight> weights(edge_count);
        std::uint32_t prev_src = 0;
        for (std::uint64_t i = 0; i < edge_count; ++i) {
          const auto e = in.read<PullEdge>();
          detail::check_local_index(e.src_lidx, n_from, name());
          detail::check_local_index(e.dst_lidx, n, name());
          // The sender emits in (src lidx, edge position) order, so the
          // CSR rows fill front to back.
          for (std::uint32_t s = prev_src; s < e.src_lidx; ++s) {
            offsets[s + 1] = i;
          }
          prev_src = e.src_lidx;
          dst[i] = e.dst_lidx;
          weights[i] = e.weight;
        }
        for (std::uint32_t s = prev_src; s < rows; ++s) {
          offsets[s + 1] = edge_count;
        }
        install_slice(from, std::move(offsets), std::move(dst),
                      std::move(weights));
      }
      const auto count = in.read<std::uint32_t>();
      auto& vals = peer_vals_[peer];
      auto& epochs = peer_epoch_[peer];
      for (std::uint32_t i = 0; i < count; ++i) {
        const auto wire = in.read<Wire>();
        detail::check_local_index(wire.lidx, vals.size(), name());
        vals[wire.lidx] = wire.value;
        epochs[wire.lidx] = cur_epoch_;
      }
    }
    handshake_received_ = true;
  }

  /// Gather this superstep's combined value for every destination vertex
  /// d in [lo, hi): per source rank a sub-fold of f(published, weight)
  /// over d's in-edges from that rank in (src lidx, edge position) order,
  /// sub-results folded in rank order (this rank at its natural
  /// position). That nesting replays push's fold exactly — push combines
  /// per sender rank first and folds the per-rank wires in peer order at
  /// delivery — so even float-sum results are bitwise identical.
  /// Destinations are independent, so the parallel fan-out changes
  /// nothing.
  void gather_range(std::uint32_t lo, std::uint32_t hi, int delivery_slot) {
    const int num_workers = w().num_workers();
    const int me = w().rank();
    for (std::uint32_t d = lo; d < hi; ++d) {
      ValT acc{};
      bool any = false;
      for (int r = 0; r < num_workers; ++r) {
        const auto slot = static_cast<std::size_t>(r);
        ValT sub{};
        bool got = false;
        for (const graph::Edge e : gather_index_[slot]->out(d)) {
          const std::uint32_t src = e.dst;  // transposed: dst = source lidx
          const ValT* v;
          if (r == me) {
            if (pub_epoch_[src] != cur_epoch_) continue;
            v = &published_[src];
          } else {
            if (peer_epoch_[slot][src] != cur_epoch_) continue;
            v = &peer_vals_[slot][src];
          }
          const ValT contrib = edge_fn_(*v, e.weight);
          sub = got ? combiner_(sub, contrib) : contrib;
          got = true;
        }
        if (!got) continue;
        acc = any ? combiner_(acc, sub) : sub;
        any = true;
      }
      if (!any) continue;
      slot_[d] = acc;
      has_[d] = 1;
      recv_touched_[static_cast<std::size_t>(delivery_slot)].push_back(d);
      worker_->activate_local(d);  // atomic frontier word-OR
    }
  }

  Worker<VertexT>* worker_;
  Combiner<ValT> combiner_;

  // Receiver side.
  std::vector<ValT> slot_;            ///< combined value per local vertex
  std::vector<std::uint8_t> has_;
  // Sender side: per-slot shards plus the per-rank merge state serialize
  // reuses every superstep.
  std::vector<Shard> shards_;
  std::vector<Partial> merge_;
  // Delivery bookkeeping: per-delivery-slot touched lists (reset lazily
  // next serialize; order across slots is irrelevant) and the per-peer
  // payload spans of the round being delivered.
  std::vector<std::vector<std::uint32_t>> recv_touched_;
  detail::WireSpans<Wire> spans_;

  // Pull protocol state (edge_fn_ set by the pull-capable constructor;
  // the rest lazily built on the first pull superstep and kept for the
  // run — direction flips back and forth reuse it).
  EdgeFn edge_fn_;
  Direction direction_ = Direction::kPush;
  bool pull_ready_ = false;
  bool handshake_sent_ = false;       ///< structure shipped to all peers
  bool handshake_done_pending_ = false;
  bool handshake_received_ = false;   ///< all peer slices installed
  /// Publish epoch: one per pull superstep, bumped after its gather.
  /// Stamps distinguish "published THIS pull superstep" from stale values
  /// (0 = never) without any per-superstep clearing.
  std::uint32_t cur_epoch_ = 1;
  std::vector<ValT> published_;            ///< one slot per local vertex
  std::vector<std::uint32_t> pub_epoch_;
  std::vector<std::vector<std::uint32_t>> boundary_;  ///< per peer, lidx asc
  std::vector<std::vector<PullEdge>> handshake_out_;
  std::vector<graph::CsrGraph> slices_;    ///< forward slice per source rank
  std::vector<const graph::CsrGraph*> gather_index_;  ///< cached transposes
  std::vector<std::vector<ValT>> peer_vals_;          ///< per peer, by lidx
  std::vector<std::vector<std::uint32_t>> peer_epoch_;
  std::uint64_t pull_in_edges_ = 0;  ///< gather work size (edges indexed)
};

}  // namespace pregel::core
