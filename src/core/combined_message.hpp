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
// send_message() staging is sharded per (compute chunk, destination rank)
// — the parallel communication phase of DESIGN.md section 8:
//
//  * Exact combiners (Combiner::exact — min/max/or, integer sums) combine
//    AT STAGE TIME: each chunk keeps a dense partial keyed by the
//    receiver's local index, so a send is an array write, not a hash
//    lookup. The partial's value/flag arrays are dense — O(receiver
//    slice) per (chunk, destination rank) pair that sends at all, lazily
//    allocated and reused for the whole run — while per-superstep work
//    (merge + reset, via the touched lists) stays O(unique
//    destinations).
//  * Inexact combiners (floating-point sums) keep per-chunk raw message
//    logs; the merge replays them message by message in chunk order, which
//    is exactly the sequential fold (chunks are contiguous and
//    ascending, whichever slot executed them), so float results stay
//    bitwise identical across thread counts and schedules. Trade-off: the
//    logs stage O(messages) per superstep rather than O(unique
//    destinations) — combining them earlier would regroup the float fold
//    and break the bitwise invariant.
//
// The logs and partials carry only send_message() traffic. publish(value)
// (below) stages nothing per edge: it stores one value per
// vertex and appends the vertex to its chunk's publish list.
//
// serialize() merges per destination rank — in parallel over contiguous
// destination-rank ranges when the engine runs the comm phase with
// threads — and emits one combined packed (lidx, value) record
// (channel.hpp's WireRecord) per unique destination in first-touch order,
// which is itself independent of the thread count. Delivery range-partitions the local vertex space; each
// slot scans the peer inboxes in peer order and applies only its own
// range, preserving the sequential per-vertex application order without
// atomics on values.
//
// publish() (DESIGN.md section 9): a CombinedMessage constructed with an
// edge transform f(value, weight) lets the algorithm call publish(value)
// once per vertex instead of looping its out-edges. The value lands in a
// per-vertex published column and the vertex joins its chunk's publish
// list; serialize() turns the lists into wires by one of two per-run
// structures over this rank's out-edges, each built on the first
// superstep that needs it:
//
//  * Full publish — every local vertex with out-edges published (PageRank,
//    any superstep of a static pattern): the static gather
//    (static_gather.hpp, shared with ScatterCombine). Per destination
//    rank it lists the unique receivers in first-touch order and, per
//    receiver, its senders in (src lidx, edge position) order. serialize
//    folds each receiver's contributions left to right and writes one
//    wire per receiver straight into the outbox — no per-edge has/touched
//    bookkeeping and no reset pass.
//  * Partial publish (SSSP's frontier): the out-edge index, grouped by
//    destination rank in (src lidx, edge position) order. serialize folds
//    f(published[src], w) over the published sources' edges into the same
//    per-rank merge a per-edge send_message(e.dst, f(value, e.weight))
//    loop would feed.
//
// The lists concatenate in chunk order to ascending lidx, so both give
// exactly the fold and first-touch order — hence the wire bytes and float
// bits — of the hand-written loop, at no per-edge cost in compute. f runs
// per edge (once per source when every weight is 1), so it must be a pure
// function of its arguments.
//
// Every per-message loop (stage-time combining, the merge, the static
// gather, delivery) folds through with_fold(): a stock combiner's op is
// inlined, chosen once per batch; custom combiners call their function.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/channel.hpp"
#include "core/static_gather.hpp"
#include "core/types.hpp"
#include "core/worker.hpp"
#include "graph/csr.hpp"

namespace pregel::core {

template <typename VertexT, typename ValT>
  requires runtime::TriviallySerializable<ValT> &&
           std::is_standard_layout_v<ValT>
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

  /// publish() form: the edge transform makes the channel's messaging
  /// pattern explicit (one value per vertex, expanded per out-edge), which
  /// is what lets the channel expand it at serialize time. Algorithms
  /// using this form call publish() instead of the per-edge
  /// send_message() loop.
  CombinedMessage(Worker<VertexT>* w, Combiner<ValT> combiner, EdgeFn f,
                  std::string name = "combined")
      : CombinedMessage(w, std::move(combiner), std::move(name)) {
    edge_fn_ = std::move(f);
    published_.assign(num_local_limit(), ValT{});
    pub_epoch_.assign(num_local_limit(), 0);
    for (std::uint32_t lidx = 0; lidx < num_local_limit(); ++lidx) {
      if (!out_edges(lidx).empty()) ++sources_;
    }
  }

  /// Send m to dst; values for the same destination are combined. Safe
  /// from parallel compute threads: staging is keyed by the caller's
  /// current compute chunk (run by exactly one thread).
  void send_message(KeyT dst, const ValT& m) {
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
        // One message, so the op is chosen per call here; the branch is
        // the same on every call.
        with_fold(combiner_, [&](auto fold) {
          p.vals[lidx] = fold(p.vals[lidx], m);
        });
      } else {
        p.vals[lidx] = m;
        p.has[lidx] = 1;
        p.touched.push_back(lidx);
      }
    } else {
      shard.log[to].push_back(Record{lidx, m});
    }
  }

  /// Publish the current vertex's value for this superstep (channels built
  /// with an edge transform only): every out-edge carries f(value,
  /// e.weight). Compute does per-vertex work only — the value goes into
  /// the epoch-stamped published column (one exclusive slot per vertex, so
  /// parallel compute threads need no staging) and the vertex joins its
  /// chunk's publish list, which serialize() expands over the out-edge
  /// index — wire bytes identical to a hand-written per-edge
  /// send_message(e.dst, f(value, e.weight)) loop.
  ///
  /// One publish per vertex per superstep, and no send_message() on the
  /// same channel in a superstep that publishes: the deferred expansion
  /// would drop a value or reorder the fold, so both throw.
  void publish(const ValT& value) {
    if (!edge_fn_) {
      throw std::logic_error(
          "CombinedMessage '" + name() +
          "': publish requires the constructor taking an edge transform");
    }
    const std::uint32_t lidx = w().current_local();
    if (pub_epoch_[lidx] == cur_epoch_) {
      throw std::logic_error("CombinedMessage '" + name() +
                             "': publish called twice for one vertex in "
                             "one superstep");
    }
    published_[lidx] = value;
    pub_epoch_[lidx] = cur_epoch_;
    shards_[static_cast<std::size_t>(detail::t_compute_chunk)]
        .published.push_back(lidx);
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

  /// Fan the per-destination-rank emit over the pool: each slot owns a
  /// contiguous destination-rank range and writes into its ranks'
  /// outboxes exclusively, so the bytes are independent of the slot
  /// count. Serialize runs exactly once per superstep (every channel
  /// joins the first round and again() is false), so it also closes the
  /// superstep's publish epoch.
  void serialize() override {
    reset_receive_slots();
    std::uint64_t published = 0;
    for (const Shard& s : shards_) published += s.published.size();
    const std::uint64_t sent = staged_items();
    if (published != 0 && sent != 0) {
      throw std::logic_error(
          "CombinedMessage '" + name() +
          "': publish and send_message both used in one superstep");
    }
    if (published != 0 && publishes_every_source(published)) {
      gather_published(published);
    } else {
      const bool expand = published != 0;
      if (expand) ensure_out_index();
      w().run_comm_partitioned(
          published + sent, static_cast<std::uint32_t>(w().num_workers()),
          nullptr, [this, expand](std::uint32_t begin, std::uint32_t end, int) {
            with_fold(combiner_, [&](auto fold) {
              for (auto to = static_cast<int>(begin);
                   to < static_cast<int>(end); ++to) {
                merge_rank(to, expand, fold);
              }
            });
          });
    }
    for (Shard& s : shards_) s.published.clear();
    ++cur_epoch_;
  }

  /// Range-partitioned delivery: record each peer payload's raw span,
  /// then every pool slot scans all spans in peer order applying only the
  /// wires whose destination falls in its contiguous local-vertex range.
  void deserialize() override {
    const int num_workers = w().num_workers();
    std::uint64_t total = 0;
    for (int from = 0; from < num_workers; ++from) {
      total += spans_.read(w().inbox(from), from);
    }
    w().run_comm_partitioned(
        total, num_local_limit(), &recv_touched_,
        [this](std::uint32_t lo, std::uint32_t hi, int slot) {
          with_fold(combiner_, [&](auto fold) {
            spans_.for_each(lo, hi, num_local_limit(), name(),
                            [&](const Record& r) { apply(r, slot, fold); });
          });
        });
  }

 private:
  using Record = detail::WireRecord<ValT>;

  /// One slot's pending combined values for one destination rank.
  struct Partial {
    std::vector<ValT> vals;
    std::vector<std::uint8_t> has;
    std::vector<std::uint32_t> touched;  ///< first-touch order
  };

  /// One compute chunk's staging: send_message() traffic sharded by
  /// destination rank, plus the chunk's publish() list.
  struct Shard {
    std::vector<Partial> partial;          ///< exact combiners
    std::vector<std::vector<Record>> log;  ///< inexact combiners
    std::vector<std::uint32_t> published;  ///< publish() list, lidx asc
  };

  /// This rank's out-edges into one destination rank, in (src lidx, edge
  /// position) order: CSR rows over the sender's local indices, columns
  /// in the receiver's. Serves supersteps where only some sources publish.
  struct PeerEdges {
    std::vector<std::uint64_t> offsets;  ///< num_local() + 1
    std::vector<std::uint32_t> dst;      ///< receiver-rank local index
    std::vector<graph::Weight> weights;  ///< empty when every weight is 1
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
  // end of superstep N, consumed by compute in N+1). Staging shards and
  // publish lists are empty at the boundary, and the out-edge index and
  // static gather are rebuilt on first use, so none of them is persisted.

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

  [[nodiscard]] graph::EdgeSpan out_edges(std::uint32_t lidx) const {
    return worker_->dgraph().out(w().rank(), lidx);
  }

  /// Emit the first-touch list of `m` to `out` as one section, resetting
  /// each slot for the next superstep.
  void flush_partial(Partial& m, runtime::Buffer& out) const {
    out.write<std::uint32_t>(static_cast<std::uint32_t>(m.touched.size()));
    std::byte* at = out.extend(m.touched.size() * Record::kBytes);
    for (const std::uint32_t lidx : m.touched) {
      Record::put(at, lidx, m.vals[lidx]);
      at += Record::kBytes;
      m.vals[lidx] = combiner_.identity;
      m.has[lidx] = 0;
    }
    m.touched.clear();
  }

  /// Merge every shard's staging for destination rank `to` — the
  /// send_message() staging, or with `expand` the publish() lists over the
  /// out-edge index — and emit the merge. Walking shards in chunk order
  /// makes both the fold sequence (raw logs: message by message) and the
  /// first-touch wire order exactly the sequential ones, so bytes and
  /// float bits are independent of the thread count and of which slot
  /// executed each chunk.
  template <typename Fold>
  void merge_rank(int to, bool expand, Fold fold) {
    const auto peer = static_cast<std::size_t>(to);
    if (!expand && combiner_.exact && shards_.size() == 1) {
      // Single-shard exact staging: the chunk partial already holds the
      // final combined values in first-touch order — emit it directly.
      flush_partial(shards_[0].partial[peer], w().outbox(to));
      return;
    }
    Partial& m = merge_[peer];
    if (m.vals.empty()) {
      const std::uint32_t n = peer_local_count(to);
      m.vals.assign(n, combiner_.identity);
      m.has.assign(n, 0);
    }
    for (Shard& shard : shards_) {
      if (expand) {
        expand_published(shard.published, out_index_[peer], m, fold);
        continue;
      }
      Partial& p = shard.partial[peer];
      for (const std::uint32_t lidx : p.touched) {
        fold_into(m, lidx, p.vals[lidx], fold);
        p.vals[lidx] = combiner_.identity;
        p.has[lidx] = 0;
      }
      p.touched.clear();
      auto& log = shard.log[peer];
      for (const Record& r : log) fold_into(m, r.lidx, r.value, fold);
      log.clear();
    }
    flush_partial(m, w().outbox(to));
  }

  /// Fold f(published[src], w) over every out-edge of every src in
  /// `published` into one destination rank's merge. The list ascends and
  /// each peer's edges sit in (src lidx, edge position) order, so this is
  /// the fold — and first-touch order — of the per-edge send loop.
  template <typename Fold>
  void expand_published(const std::vector<std::uint32_t>& published,
                        const PeerEdges& edges, Partial& m, Fold fold) {
    for (const std::uint32_t src : published) {
      const std::uint64_t first = edges.offsets[src];
      const std::uint64_t last = edges.offsets[src + 1];
      if (first == last) continue;
      const ValT& value = published_[src];
      if (edges.weights.empty()) {
        const ValT contrib = edge_fn_(value, graph::Weight{1});
        for (std::uint64_t i = first; i < last; ++i) {
          fold_into(m, edges.dst[i], contrib, fold);
        }
      } else {
        for (std::uint64_t i = first; i < last; ++i) {
          fold_into(m, edges.dst[i], edge_fn_(value, edges.weights[i]), fold);
        }
      }
    }
  }

  /// Every source published: write each destination rank's section
  /// straight from the static gather, one (lidx, left fold of its
  /// senders' contributions) wire per receiver in first-touch order — the
  /// fold and wire order of expand_published() over a full publish list.
  /// With unit weights published_ holds f(value, 1) per source
  /// (fold_unit_contributions()).
  void gather_published(std::uint64_t published) {
    if (!gather_.built()) {
      gather_.build(w().dgraph(), ReceiverOrder::kFirstTouch,
                    [this](auto&& visit) {
                      for (std::uint32_t lidx = 0; lidx < num_local_limit();
                           ++lidx) {
                        for (const graph::Edge e : out_edges(lidx)) {
                          visit(lidx, e.dst, e.weight);
                        }
                      }
                    });
    }
    if (gather_.unit()) fold_unit_contributions(published);
    std::vector<std::byte*> seg(static_cast<std::size_t>(w().num_workers()));
    for (int to = 0; to < w().num_workers(); ++to) {
      runtime::Buffer& out = w().outbox(to);
      const std::size_t receivers = gather_.receivers(to);
      out.write<std::uint32_t>(static_cast<std::uint32_t>(receivers));
      seg[static_cast<std::size_t>(to)] =
          out.extend(receivers * Record::kBytes);
    }
    const auto emit = [&seg](int to, std::size_t at, std::uint32_t lidx,
                             const ValT& acc) {
      Record::put(seg[static_cast<std::size_t>(to)] + at * Record::kBytes,
                  lidx, acc);
    };
    with_fold(combiner_, [&](auto fold) {
      if (gather_.unit()) {
        gather_.fold_runs(
            w(), fold,
            [this](std::uint32_t src, std::uint64_t) { return published_[src]; },
            emit);
      } else {
        gather_.fold_runs(
            w(), fold,
            [this](std::uint32_t src, std::uint64_t i) {
              return edge_fn_(published_[src], gather_.weight(i));
            },
            emit);
      }
    });
  }

  /// Whether every local vertex with out-edges is on this superstep's
  /// publish lists (each vertex publishes at most once, so counting the
  /// listed vertices that have out-edges decides it).
  [[nodiscard]] bool publishes_every_source(std::uint64_t published) const {
    if (published < sources_) return false;
    std::uint64_t covered = 0;
    for (const Shard& s : shards_) {
      for (const std::uint32_t lidx : s.published) {
        covered += out_edges(lidx).empty() ? 0 : 1;
      }
    }
    return covered == sources_;
  }

  /// Unit weights: every out-edge of a source carries f(value, 1), so
  /// compute it once per published source, in place — the column is read
  /// only by this superstep's gather. Shards are disjoint, so the pool
  /// splits them.
  void fold_unit_contributions(std::uint64_t published) {
    w().run_comm_partitioned(
        published, static_cast<std::uint32_t>(shards_.size()), nullptr,
        [this](std::uint32_t lo, std::uint32_t hi, int) {
          for (std::uint32_t s = lo; s < hi; ++s) {
            for (const std::uint32_t lidx : shards_[s].published) {
              published_[lidx] = edge_fn_(published_[lidx], graph::Weight{1});
            }
          }
        });
  }

  template <typename Fold>
  static void fold_into(Partial& m, std::uint32_t lidx, const ValT& v,
                        Fold fold) {
    if (m.has[lidx]) {
      m.vals[lidx] = fold(m.vals[lidx], v);
    } else {
      m.vals[lidx] = v;
      m.has[lidx] = 1;
      m.touched.push_back(lidx);
    }
  }

  /// Receiver-side apply of one in-range record into the delivery
  /// slot's state.
  template <typename Fold>
  void apply(const Record& r, int delivery_slot, Fold fold) {
    if (has_[r.lidx]) {
      slot_[r.lidx] = fold(slot_[r.lidx], r.value);
    } else {
      slot_[r.lidx] = r.value;
      has_[r.lidx] = 1;
      recv_touched_[static_cast<std::size_t>(delivery_slot)].push_back(
          r.lidx);
    }
    worker_->activate_local(r.lidx);  // atomic frontier word-OR
  }

  /// Build the out-edge index once (the CSR is immutable): a counting
  /// pass over this rank's adjacency sizes every peer's arrays exactly,
  /// then a fill pass appends the edges grouped by destination rank in
  /// (src lidx, edge position) order. Works identically on a localized
  /// TCP view: only out(rank, lidx) and the global partition id maps are
  /// touched.
  void ensure_out_index() {
    if (!out_index_.empty()) return;
    const std::uint32_t n = num_local_limit();
    out_index_.resize(static_cast<std::size_t>(w().num_workers()));
    for (PeerEdges& peer : out_index_) peer.offsets.assign(n + 1, 0);
    const auto peer_of = [this](graph::VertexId dst) -> PeerEdges& {
      return out_index_[static_cast<std::size_t>(w().owner_of(dst))];
    };
    bool unit = true;
    for (std::uint32_t lidx = 0; lidx < n; ++lidx) {
      for (const graph::Edge e : out_edges(lidx)) {
        ++peer_of(e.dst).offsets[lidx + 1];
        unit = unit && e.weight == 1;
      }
    }
    for (PeerEdges& peer : out_index_) {
      for (std::uint32_t lidx = 0; lidx < n; ++lidx) {
        peer.offsets[lidx + 1] += peer.offsets[lidx];
      }
      peer.dst.reserve(peer.offsets[n]);
      if (!unit) peer.weights.reserve(peer.offsets[n]);
    }
    for (std::uint32_t lidx = 0; lidx < n; ++lidx) {
      for (const graph::Edge e : out_edges(lidx)) {
        PeerEdges& peer = peer_of(e.dst);
        peer.dst.push_back(w().local_of(e.dst));
        if (!unit) peer.weights.push_back(e.weight);
      }
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
  detail::WireSpans<ValT> spans_;

  // publish() state: edge_fn_, the published columns and the source count
  // are set up by the edge-transform constructor; the out-edge index and
  // the static gather are each built on the first superstep that needs
  // them and kept for the run.
  EdgeFn edge_fn_;
  /// Publish epoch: one per superstep, closed by serialize(). Stamps
  /// distinguish "published THIS superstep" from stale values (0 = never)
  /// without any per-superstep clearing.
  std::uint32_t cur_epoch_ = 1;
  std::vector<ValT> published_;            ///< one slot per local vertex
  std::vector<std::uint32_t> pub_epoch_;
  /// Local vertices with at least one out-edge: a superstep whose
  /// publish lists cover them all is served by the static gather.
  std::uint64_t sources_ = 0;
  std::vector<PeerEdges> out_index_;       ///< per destination rank
  StaticGather gather_;
};

}  // namespace pregel::core
