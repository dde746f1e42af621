#pragma once
// PPWorker: the Pregel+-style baseline engine the paper evaluates against.
//
// This engine deliberately reproduces the *monolithic message mechanism*
// of Pregel/Pregel+ (Section II-B):
//   * one message type MsgT serves every communication in the program —
//     multi-phase algorithms must widen it to the largest phase's needs;
//   * at most one *global* combiner — legal only when every message in the
//     program can be combined with it, otherwise none can be used;
//   * the two Pregel+ optimization modes (reqresp, ghost/mirroring) are
//     baked into the engine rather than composable: enabling them changes
//     the engine's communication schedule for the whole program.
//
// It runs on the same runtime substrate (threads + buffer exchange) AND
// the same SoA vertex store (core::VertexColumns: packed value column +
// ActiveSet frontier) as the channel engine, so benchmark comparisons
// measure exactly what the paper measures — message volume and per-worker
// message-processing cost — not storage-layout differences.
//
// Mode fidelity notes (Section V-B analyses):
//   * reqresp responses are shipped as (id, value) PAIRS — Pregel+'s
//     format, ~33% larger than the channel engine's positional replies;
//   * ghost mode uses hash-table mirror lookup on the receiver for every
//     incoming broadcast — the computational overhead the paper measures.
//
// Parallel communication phase (DESIGN.md section 8): the plain message
// batch is applied range-partitioned over the local vertex space, fanned
// over compute_threads() pool slots (per-vertex arrival order — peer order,
// then in-payload order — is the same for any slot count, so combined
// floats stay bitwise identical). Ghost mode keeps a sequential loop: its
// mirror scatter interleaves with the plain wires per peer, an order a
// range-partition over two passes would not preserve.

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine_base.hpp"
#include "core/types.hpp"
#include "core/vertex.hpp"
#include "runtime/stats.hpp"

namespace pregel::plus {

using core::KeyT;
using core::VertexId;

/// Vertex record: same layout as the channel engine's (the paper's systems
/// differ in the message mechanism, not the vertex store).
template <typename ValueT>
using Vertex = core::Vertex<ValueT>;

/// Number of u64 sum-aggregator slots (Pregel's named aggregators,
/// simplified to a fixed array).
inline constexpr int kNumAggSlots = 4;

template <typename VertexT, typename MsgT, typename RespT = MsgT>
  requires runtime::TriviallySerializable<MsgT> &&
           runtime::TriviallySerializable<RespT>
class PPWorker : public core::EngineBase, public core::VertexColumns<VertexT> {
 public:
  using ValueT = typename VertexT::value_type;

  PPWorker() : core::EngineBase("PPWorker") {
    const auto workers = static_cast<std::size_t>(num_workers());
    staged_.resize(workers);
    staged_ghost_.resize(workers);
    staged_reg_.resize(workers);
    req_staged_.clear();
    sent_requests_.resize(workers);
    pending_replies_.resize(workers);
    incoming_.resize(num_local());
    ghost_neighbors_.resize(num_local());
  }

  // ---- the user program --------------------------------------------------

  virtual void compute(VertexT& v, std::span<const MsgT> msgs) = 0;
  virtual void init_vertex(VertexT& /*v*/) {}
  virtual void begin_superstep() {}
  /// reqresp mode: produce the response value for a requested vertex.
  virtual RespT respond(const VertexT& /*v*/) const { return RespT{}; }

  // ---- configuration (identical on every rank, before run()) -------------

  /// Install the single global combiner. Only legal when EVERY message in
  /// the program is combinable with it — Pregel's restriction.
  void set_combiner(core::Combiner<MsgT> c) { combiner_ = std::move(c); }

  /// Enable Pregel+'s reqresp mode (adds two communication rounds per
  /// superstep for the whole program).
  void enable_reqresp() { reqresp_ = true; }

  /// Enable Pregel+'s ghost (mirroring) mode with a degree threshold
  /// (paper uses 16): broadcasts from vertices with out-degree >= tau send
  /// one message per mirror worker instead of one per neighbor.
  void enable_ghost(std::uint32_t degree_threshold) {
    ghost_ = true;
    ghost_threshold_ = degree_threshold;
  }

  // ---- messaging -----------------------------------------------------------

  void send_message(KeyT dst, const MsgT& m) {
    if (combiner_) {
      auto [it, inserted] = combine_staged_.try_emplace(dst, m);
      if (!inserted) it->second = (*combiner_)(it->second, m);
      return;
    }
    staged_[static_cast<std::size_t>(env_.dg->owner(dst))].push_back(
        Wire{env_.dg->local_index(dst), m});
  }

  /// Send m to every out-neighbor of v. In ghost mode, high-degree
  /// vertices send one copy per mirror worker instead.
  void broadcast(VertexT& v, const MsgT& m) {
    if (ghost_ && v.out_degree() >= ghost_threshold_) {
      broadcast_ghost(v, m);
      return;
    }
    for (const auto& e : v.edges()) send_message(e.dst, m);
  }

  // ---- reqresp mode ---------------------------------------------------------

  void request(KeyT dst) {
    if (!reqresp_) {
      throw std::logic_error("PPWorker: request() without enable_reqresp()");
    }
    req_staged_.push_back(dst);
  }

  [[nodiscard]] const RespT& get_resp(KeyT dst) const {
    const auto it = responses_.find(dst);
    if (it == responses_.end()) {
      throw std::logic_error("PPWorker: no response for this vertex");
    }
    return it->second;
  }

  [[nodiscard]] bool has_resp(KeyT dst) const {
    return responses_.count(dst) != 0;
  }

  // ---- aggregators ----------------------------------------------------------

  void agg_add(int slot, std::uint64_t v) { agg_partial_[check_slot(slot)] += v; }
  [[nodiscard]] std::uint64_t agg_result(int slot) const {
    return agg_result_[check_slot(slot)];
  }
  void dagg_add(double v) { dagg_partial_ += v; }
  [[nodiscard]] double dagg_result() const { return dagg_result_; }

  // ---- results (local_vertex / for_each_vertex come from VertexColumns) ----

 protected:
  // ---- one superstep (EngineBase drives the loop) ---------------------------

  void prepare() override { load_vertices(); }

  bool superstep() override {
    const auto c0 = Clock::now();
    begin_superstep();
    stats_.note_active(this->active_.count());
    compute_phase();
    const auto c1 = Clock::now();
    message_round();
    ++stats_.comm_rounds;
    if (reqresp_) {
      request_round();
      response_round();
      stats_.comm_rounds += 2;
    }
    stats_.compute_seconds += seconds_between(c0, c1);
    stats_.comm_seconds += seconds_between(c1, Clock::now());
    return any_active_vertex();
  }

 private:
  struct Wire {
    std::uint32_t lidx;
    MsgT value;
  };
  struct GhostWire {
    VertexId src;
    MsgT value;
  };

  static int check_slot(int slot) {
    if (slot < 0 || slot >= kNumAggSlots) {
      throw std::out_of_range("PPWorker: bad aggregator slot");
    }
    return slot;
  }

  void load_vertices() {
    this->init_columns(*env_.dg, env_.rank);
    const std::uint32_t n = num_local();
    for (std::uint32_t lidx = 0; lidx < n; ++lidx) {
      VertexT v = this->handle(lidx);
      init_vertex(v);
    }
  }

  void compute_phase() {
    const std::uint32_t n = num_local();
    if (n == 0 || !this->active_.any()) return;
    // Same dense/sparse frontier dispatch as the channel engine (the
    // threshold lives in VertexColumns): a sparse superstep word-scans
    // the ActiveSet instead of scanning all V.
    if (this->frontier_is_sparse()) {
      this->active_.for_each_set([this](std::uint32_t lidx) {
        VertexT v = this->handle(lidx);
        compute(v, incoming_[lidx]);
      });
    } else {
      for (std::uint32_t lidx = 0; lidx < n; ++lidx) {
        if (!this->active_.test(lidx)) continue;
        VertexT v = this->handle(lidx);
        compute(v, incoming_[lidx]);
      }
    }
  }

  /// O(1): the ActiveSet's cached popcount.
  [[nodiscard]] bool any_active_vertex() const {
    return this->active_.any();
  }

  // Ghost-mode send path for one high-degree vertex.
  void broadcast_ghost(VertexT& v, const MsgT& m) {
    const std::uint32_t lidx = env_.dg->local_index(v.id());
    auto& mirrors = ghost_neighbors_[lidx];
    if (mirrors.empty()) {
      // First broadcast: build and register the mirror tables (the
      // preprocessing cost the paper includes in ghost-mode timings).
      mirrors.assign(static_cast<std::size_t>(num_workers()), {});
      for (const auto& e : v.edges()) {
        mirrors[static_cast<std::size_t>(env_.dg->owner(e.dst))].push_back(
            env_.dg->local_index(e.dst));
      }
      for (int to = 0; to < num_workers(); ++to) {
        const auto& list = mirrors[static_cast<std::size_t>(to)];
        if (!list.empty()) {
          staged_reg_[static_cast<std::size_t>(to)].push_back(
              Registration{v.id(), list});
        }
      }
    }
    for (int to = 0; to < num_workers(); ++to) {
      if (!mirrors[static_cast<std::size_t>(to)].empty()) {
        staged_ghost_[static_cast<std::size_t>(to)].push_back(
            GhostWire{v.id(), m});
      }
    }
  }

  // Round 1 (always): normal messages + ghost registrations + ghost
  // broadcasts + aggregator partials.
  void message_round() {
    // Retire last superstep's delivered messages.
    for (auto& touched : recv_touched_) {
      for (const std::uint32_t lidx : touched) incoming_[lidx].clear();
      touched.clear();
    }

    const auto s0 = Clock::now();
    const int workers = num_workers();
    if (combiner_) {
      // Sender-side combining: bucket the map by owner.
      for (const auto& [dst, val] : combine_staged_) {
        staged_[static_cast<std::size_t>(env_.dg->owner(dst))].push_back(
            Wire{env_.dg->local_index(dst), val});
      }
      combine_staged_.clear();
    }
    for (int to = 0; to < workers; ++to) {
      auto& out = env_.exchange->outbox(env_.rank, to);
      auto& batch = staged_[static_cast<std::size_t>(to)];
      out.write<std::uint32_t>(static_cast<std::uint32_t>(batch.size()));
      if (!batch.empty()) {
        out.write_bytes(batch.data(), batch.size() * sizeof(Wire));
        batch.clear();
      }
      // Ghost registrations.
      auto& regs = staged_reg_[static_cast<std::size_t>(to)];
      out.write<std::uint32_t>(static_cast<std::uint32_t>(regs.size()));
      for (const auto& r : regs) {
        out.write<VertexId>(r.src);
        out.write_vector(r.neighbors);
      }
      regs.clear();
      // Ghost broadcast values.
      auto& ghosts = staged_ghost_[static_cast<std::size_t>(to)];
      out.write<std::uint32_t>(static_cast<std::uint32_t>(ghosts.size()));
      if (!ghosts.empty()) {
        out.write_bytes(ghosts.data(), ghosts.size() * sizeof(GhostWire));
        ghosts.clear();
      }
      // Aggregator partials.
      for (int s = 0; s < kNumAggSlots; ++s) {
        out.write<std::uint64_t>(agg_partial_[static_cast<std::size_t>(s)]);
      }
      out.write<double>(dagg_partial_);
    }
    agg_partial_.fill(0);
    dagg_partial_ = 0.0;

    const auto s1 = Clock::now();
    env_.exchange->exchange(env_.rank);
    const auto s2 = Clock::now();

    agg_result_.fill(0);
    dagg_result_ = 0.0;
    // Range-partitioned delivery of the plain message batches (DESIGN.md
    // section 8). Ghost mode keeps the sequential path — its per-peer
    // wire/ghost interleaving defines the per-vertex fold order.
    std::uint64_t total_wires = 0;
    for (int from = 0; from < workers; ++from) {
      auto& in = env_.exchange->inbox(env_.rank, from);
      if (!ghost_) {
        total_wires += wire_spans_.read(in, from);
      } else {
        const auto n = in.read<std::uint32_t>();
        for (std::uint32_t i = 0; i < n; ++i) {
          const auto wire = in.read<Wire>();
          core::detail::check_local_index(wire.lidx, num_local(), "PPWorker");
          deliver(wire, 0);
        }
      }
      const auto nreg = in.read<std::uint32_t>();
      for (std::uint32_t i = 0; i < nreg; ++i) {
        const auto src = in.read<VertexId>();
        mirror_table_[src] = in.read_vector<std::uint32_t>();
      }
      const auto nghost = in.read<std::uint32_t>();
      for (std::uint32_t i = 0; i < nghost; ++i) {
        const auto gw = in.read<GhostWire>();
        // Hash lookup per broadcast — the ghost-mode receiver cost.
        const auto it = mirror_table_.find(gw.src);
        if (it == mirror_table_.end()) {
          throw std::logic_error("PPWorker: ghost value before registration");
        }
        for (const std::uint32_t lidx : it->second) {
          core::detail::check_local_index(lidx, num_local(), "PPWorker");
          deliver(Wire{lidx, gw.value}, 0);
        }
      }
      for (int s = 0; s < kNumAggSlots; ++s) {
        agg_result_[static_cast<std::size_t>(s)] += in.read<std::uint64_t>();
      }
      dagg_result_ += in.read<double>();
    }
    if (!ghost_) {
      const std::uint32_t n = num_local();
      run_comm_partitioned(
          total_wires, n, &recv_touched_,
          [this, n](std::uint32_t lo, std::uint32_t hi, int slot) {
            wire_spans_.for_each(
                lo, hi, n, "PPWorker",
                [&](const Wire& wire) { deliver(wire, slot); });
          });
    }
    stats_.serialize_seconds += seconds_between(s0, s1);
    stats_.exchange_seconds += seconds_between(s1, s2);
    stats_.deliver_seconds += seconds_between(s2, Clock::now());
  }

  void deliver(const Wire& wire, int delivery_slot) {
    auto& box = incoming_[wire.lidx];
    if (combiner_ && !box.empty()) {
      box[0] = (*combiner_)(box[0], wire.value);
    } else {
      if (box.empty()) {
        recv_touched_[static_cast<std::size_t>(delivery_slot)].push_back(
            wire.lidx);
      }
      box.push_back(wire.value);
    }
    this->active_.set(wire.lidx);  // message arrival re-activates
  }

  // Round 2 (reqresp): deduplicated request id lists.
  void request_round() {
    const auto s0 = Clock::now();
    responses_.clear();
    std::sort(req_staged_.begin(), req_staged_.end());
    req_staged_.erase(std::unique(req_staged_.begin(), req_staged_.end()),
                      req_staged_.end());
    const int workers = num_workers();
    for (int to = 0; to < workers; ++to) {
      auto& out = env_.exchange->outbox(env_.rank, to);
      auto& mine = sent_requests_[static_cast<std::size_t>(to)];
      mine.clear();
      const auto slot = out.reserve_u32();
      std::uint32_t count = 0;
      for (const KeyT dst : req_staged_) {
        if (env_.dg->owner(dst) != to) continue;
        out.write<std::uint32_t>(env_.dg->local_index(dst));
        mine.push_back(dst);
        ++count;
      }
      out.patch_u32(slot, count);
    }
    req_staged_.clear();

    const auto s1 = Clock::now();
    env_.exchange->exchange(env_.rank);
    const auto s2 = Clock::now();

    for (int from = 0; from < workers; ++from) {
      auto& in = env_.exchange->inbox(env_.rank, from);
      const auto n = in.read<std::uint32_t>();
      auto& replies = pending_replies_[static_cast<std::size_t>(from)];
      replies.clear();
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto lidx = in.read<std::uint32_t>();
        core::detail::check_local_index(lidx, num_local(), "PPWorker");
        // Pregel+ ships the requested vertex's *id* back with each value.
        const VertexT v = this->local_vertex(lidx);
        replies.push_back(RespWire{v.id(), respond(v)});
      }
    }
    stats_.serialize_seconds += seconds_between(s0, s1);
    stats_.exchange_seconds += seconds_between(s1, s2);
    stats_.deliver_seconds += seconds_between(s2, Clock::now());
  }

  // Round 3 (reqresp): responses as (id, value) pairs — Pregel+'s format.
  void response_round() {
    const auto s0 = Clock::now();
    const int workers = num_workers();
    for (int to = 0; to < workers; ++to) {
      auto& out = env_.exchange->outbox(env_.rank, to);
      auto& replies = pending_replies_[static_cast<std::size_t>(to)];
      out.write<std::uint32_t>(static_cast<std::uint32_t>(replies.size()));
      if (!replies.empty()) {
        out.write_bytes(replies.data(), replies.size() * sizeof(RespWire));
        replies.clear();
      }
    }

    const auto s1 = Clock::now();
    env_.exchange->exchange(env_.rank);
    const auto s2 = Clock::now();

    for (int from = 0; from < workers; ++from) {
      auto& in = env_.exchange->inbox(env_.rank, from);
      const auto n = in.read<std::uint32_t>();
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto rw = in.read<RespWire>();
        responses_[rw.id] = rw.value;  // hash insert per response
      }
    }
    stats_.serialize_seconds += seconds_between(s0, s1);
    stats_.exchange_seconds += seconds_between(s1, s2);
    stats_.deliver_seconds += seconds_between(s2, Clock::now());
    // Note: unlike the channel engine, reqresp responses do NOT reactivate
    // vertices (Pregel+ semantics) — programs must keep requesters active
    // until they have consumed their answers.
  }

  struct Registration {
    VertexId src;
    std::vector<std::uint32_t> neighbors;
  };
  struct RespWire {
    VertexId id;
    RespT value;
  };

  // Vertex state (values + frontier) lives in core::VertexColumns.

  // Messaging state.
  std::optional<core::Combiner<MsgT>> combiner_;
  std::unordered_map<KeyT, MsgT> combine_staged_;
  std::vector<std::vector<Wire>> staged_;
  std::vector<std::vector<MsgT>> incoming_;
  std::vector<std::vector<std::uint32_t>> recv_touched_{1};  ///< per slot
  /// Raw wire span per peer (round-scoped delivery scratch).
  core::detail::WireSpans<Wire> wire_spans_{num_workers()};

  // Ghost mode state.
  bool ghost_ = false;
  std::uint32_t ghost_threshold_ = 16;
  std::vector<std::vector<std::vector<std::uint32_t>>> ghost_neighbors_;
  std::vector<std::vector<Registration>> staged_reg_;
  std::vector<std::vector<GhostWire>> staged_ghost_;
  std::unordered_map<VertexId, std::vector<std::uint32_t>> mirror_table_;

  // Reqresp mode state.
  bool reqresp_ = false;
  std::vector<KeyT> req_staged_;
  std::vector<std::vector<KeyT>> sent_requests_;
  std::vector<std::vector<RespWire>> pending_replies_;
  std::unordered_map<KeyT, RespT> responses_;

  // Aggregators.
  std::array<std::uint64_t, kNumAggSlots> agg_partial_{};
  std::array<std::uint64_t, kNumAggSlots> agg_result_{};
  double dagg_partial_ = 0.0;
  double dagg_result_ = 0.0;
};

}  // namespace pregel::plus
