#pragma once
// Worker<VertexT>: the channel-based vertex-centric engine (paper Fig. 4).
//
// One Worker instance runs per rank. The user subclasses Worker, declares
// channels as members (constructed with `this`), and implements
// compute(VertexT&). launch<W>() spawns the team, builds each rank's
// vertex slice, and drives the superstep loop:
//
//   while any vertex is active (globally):
//     compute() on every locally active vertex
//     while any channel is active (globally):
//       serialize all active channels -> exchange buffers -> deserialize
//
// The outer loop (superstep counter, quiescence vote, stats) lives in
// EngineBase, shared with the PPWorker and BlockWorker baselines.
//
// Vertex state is structure-of-arrays (VertexColumns, DESIGN.md section
// 6): a packed value column plus a runtime::ActiveSet frontier bitset.
// "compute() on every locally active vertex" dispatches on frontier
// density — a dense frontier runs the plain linear scan (all-active
// workloads pay no overhead), a sparse one word-scans only the set bits —
// and "while any vertex is active" is the ActiveSet's O(1) cached count.
//
// Wire format: every channel payload travels in its own ChannelFrame lane
// (runtime/exchange.hpp) — serialize/deserialize misalignment throws
// FrameMismatchError instead of silently corrupting later channels, and
// per-channel byte accounting comes from the frame lengths the exchange
// patches in.
//
// Compute parallelism: PGCH_COMPUTE_THREADS (or set_compute_threads())
// chunks the per-rank vertex loop across an intra-rank ComputePool.
// Chunks are degree-aware: boundaries split the (out-degree + 1) prefix
// sum, not the vertex count, so one hub-heavy chunk cannot serialize the
// phase. Chunks stay contiguous and ascending, and channel staging is
// keyed by chunk index and replayed in chunk order, so the staged call
// sequence reproduces the sequential one exactly — regardless of which
// slot executed which chunk. That last property is what lets PGCH_STEAL
// (or set_steal()) swap the static slot->chunk pinning for a
// work-stealing schedule (kStealChunksPerSlot chunks per slot, idle slots
// steal from busy ones) with bitwise-identical results; see DESIGN.md
// sections 3, 6 and 11. The default of 1 compute thread preserves the
// exact sequential path.
//
// Divergences from the paper's listing, both engine-internal:
//  * channel activity is agreed on globally each round (a worker whose
//    channel went quiet must still deserialize data peers sent it);
//  * Worker construction happens inside launch(), which provides the
//    runtime Env through a thread-local so user code keeps the paper's
//    default-constructor shape.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/channel.hpp"
#include "core/engine_base.hpp"
#include "core/launch_config.hpp"
#include "core/types.hpp"
#include "core/vertex.hpp"
#include "graph/distributed.hpp"
#include "runtime/active_set.hpp"
#include "runtime/compute_pool.hpp"
#include "runtime/stats.hpp"
#include "runtime/team.hpp"

namespace pregel::core {

/// Channels-per-worker cap, shared with the exchange's per-channel lane
/// accounting and with the std::uint64_t channel activity mask in
/// Worker::communicate().
inline constexpr int kMaxChannels = runtime::kMaxChannels;
static_assert(kMaxChannels <= 64,
              "the channel activity mask in communicate() is 64 bits wide");

/// Non-template part of the channel engine: channel registry, buffer
/// access, id mapping. Channels talk to this interface; the shared
/// superstep/quiescence/stats loop lives in EngineBase.
class WorkerBase : public EngineBase {
 public:
  WorkerBase() : EngineBase("Worker") {}

  // ---- graph mapping ----------------------------------------------------
  [[nodiscard]] int owner_of(VertexId v) const { return env_.dg->owner(v); }
  [[nodiscard]] std::uint32_t local_of(VertexId v) const {
    return env_.dg->local_index(v);
  }
  [[nodiscard]] VertexId global_id(std::uint32_t lidx) const {
    return env_.dg->global_id(env_.rank, lidx);
  }

  // ---- channel plumbing --------------------------------------------------
  runtime::Buffer& outbox(int to) {
    return env_.exchange->outbox(env_.rank, to);
  }
  runtime::Buffer& inbox(int from) {
    return env_.exchange->inbox(env_.rank, from);
  }

  void add_channel(Channel* c) {
    if (channels_.size() >= static_cast<std::size_t>(kMaxChannels)) {
      throw std::logic_error("at most " + std::to_string(kMaxChannels) +
                             " channels per worker (kMaxChannels)");
    }
    channels_.push_back(c);
  }

  /// Local index of the vertex currently being computed; per-vertex channel
  /// APIs (set_message, add_request, get_value, ...) use it implicitly —
  /// this is what lets the paper's APIs omit the source vertex argument.
  /// Thread-local so each thread of a parallel compute phase has its own.
  [[nodiscard]] std::uint32_t current_local() const noexcept {
    return detail::t_current_lidx;
  }

  /// Slot index of the calling compute thread: 0 outside a parallel
  /// compute phase, else the thread's stable ComputePool slot. Algorithms
  /// with reusable compute-time scratch key it by this (scratch shared
  /// across vertices must not be mutated unkeyed once
  /// PGCH_COMPUTE_THREADS > 1).
  [[nodiscard]] int compute_slot() const noexcept {
    return detail::t_compute_slot;
  }

  /// Re-activate a local vertex (message arrival). Channels call this from
  /// deserialize(); it is how voting-to-halt is simulated (Section IV-B).
  /// Implemented as an atomic word-OR into the frontier bitset, so it is
  /// also safe from concurrent delivery slots and from compute threads
  /// touching neighbouring bits.
  virtual void activate_local(std::uint32_t lidx) = 0;

 protected:
  std::vector<Channel*> channels_;
};

inline Channel::Channel(WorkerBase* worker, std::string name)
    : worker_(worker), name_(std::move(name)) {
  worker_->add_channel(this);
}

/// The engine proper. VertexT must be core::Vertex<SomeValue>.
template <typename VertexT>
class Worker : public WorkerBase, public VertexColumns<VertexT> {
 public:
  using Columns = VertexColumns<VertexT>;
  using ValueT = typename VertexT::value_type;

  /// The algorithm kernel, executed once per active vertex per superstep.
  virtual void compute(VertexT& v) = 0;

  /// Optional per-vertex initialization at load time (before superstep 1).
  virtual void init_vertex(VertexT& /*v*/) {}

  /// Optional per-superstep hook, run before any compute() of the
  /// superstep. Multi-phase algorithms advance their phase machines here;
  /// decisions must be based on globally consistent state (step_num(),
  /// aggregator results) so every rank transitions identically.
  virtual void begin_superstep() {}

  /// Enable work stealing between compute slots (default: the PGCH_STEAL
  /// environment variable, else off). Takes effect only with
  /// compute_threads() > 1: the compute phase over-decomposes into
  /// kStealChunksPerSlot chunks per slot and idle slots steal chunks from
  /// busy ones. Results are bitwise-identical to the pinned schedule —
  /// channel staging is chunk-keyed and replayed in chunk order (DESIGN.md
  /// section 11). Must be set before run().
  void set_steal(bool on) { steal_enabled_ = on; }
  [[nodiscard]] bool steal() const noexcept { return steal_enabled_; }

  void activate_local(std::uint32_t lidx) override {
    this->active_.set(lidx);
  }

  /// The frontier bitset (read-only): which local vertices run compute()
  /// next superstep.
  [[nodiscard]] const runtime::ActiveSet& frontier() const noexcept {
    return this->active_;
  }

 protected:
  void prepare() override {
    load_vertices();
    for (Channel* c : channels_) c->initialize();
  }

  bool superstep() override {
    const auto c0 = Clock::now();
    begin_superstep();
    stats_.note_active(this->active_.count());
    decide_direction();
    // The compute phase is the one window where this thread touches no
    // socket, so the transport may emit control-lane heartbeats there
    // (keeping peers' silence deadlines fed through a long compute).
    env_.transport->set_heartbeat_window(env_.rank, true);
    compute_phase();
    env_.transport->set_heartbeat_window(env_.rank, false);
    const auto c1 = Clock::now();
    communicate();
    const double comm_wall = seconds_between(c1, Clock::now());
    stats_.compute_seconds += seconds_between(c0, c1);
    stats_.comm_seconds += comm_wall;
    return any_active_vertex();
  }

  void finish_stats() override {
    stats_.frame_bytes = env_.exchange->frame_overhead_bytes(env_.rank);
  }

  // ---- checkpoint/restore (DESIGN.md section 12) -------------------------
  // The superstep boundary carries forward: the value column, the
  // frontier, the adaptive-direction hysteresis (an input of a collective
  // decision — restoring it on every rank keeps that decision, and so the
  // wire, bitwise identical to a failure-free run), the accumulated
  // stats, and each channel's receive-side state. Everything else
  // (staging shards, pull handshake epochs) is rebuilt from scratch by the
  // fresh worker every rank constructs after recovery.

  void checkpoint_save(runtime::Buffer& out) override {
    if constexpr (runtime::TriviallySerializable<ValueT>) {
      out.write<std::uint32_t>(num_local());
      out.write_vector(this->values_);
      this->active_.serialize(out);
      out.write<std::uint8_t>(static_cast<std::uint8_t>(direction_));
      stats_.serialize(out);
      out.write<std::uint32_t>(static_cast<std::uint32_t>(channels_.size()));
      for (Channel* c : channels_) {
        out.write_string(c->name());
        const std::size_t patch = out.reserve_u32();
        const std::size_t before = out.size();
        c->save_state(out);
        out.patch_u32(patch, static_cast<std::uint32_t>(out.size() - before));
      }
    } else {
      throw std::logic_error(
          "checkpointing requires a trivially serializable vertex value "
          "type");
    }
  }

  void checkpoint_restore(runtime::Buffer& in) override {
    if constexpr (runtime::TriviallySerializable<ValueT>) {
      const auto n = in.read<std::uint32_t>();
      if (n != num_local()) {
        throw runtime::ProtocolError(
            "checkpoint restore: vertex count " + std::to_string(n) +
            " does not match this rank's slice (" +
            std::to_string(num_local()) + ") — wrong partition or world?");
      }
      this->values_ = in.read_vector<ValueT>();
      this->active_.deserialize(in);
      direction_ = static_cast<Direction>(in.read<std::uint8_t>());
      stats_ = runtime::RunStats::deserialize(in);
      const auto n_channels = in.read<std::uint32_t>();
      if (n_channels != channels_.size()) {
        throw runtime::ProtocolError(
            "checkpoint restore: channel count mismatch");
      }
      for (Channel* c : channels_) {
        const std::string name = in.read_string();
        if (name != c->name()) {
          throw runtime::ProtocolError(
              "checkpoint restore: expected channel '" + c->name() +
              "', found '" + name + "' (registration order changed?)");
        }
        const auto len = in.read<std::uint32_t>();
        const std::size_t before = in.remaining();
        c->restore_state(in);
        if (before - in.remaining() != len) {
          throw runtime::ProtocolError(
              "checkpoint restore: channel '" + c->name() +
              "' consumed a different size than it saved");
        }
      }
    } else {
      throw std::logic_error(
          "checkpointing requires a trivially serializable vertex value "
          "type");
    }
  }

 private:
  void load_vertices() {
    this->init_columns(*env_.dg, env_.rank);
    const std::uint32_t n = num_local();
    for (std::uint32_t lidx = 0; lidx < n; ++lidx) {
      VertexT v = this->handle(lidx);
      detail::t_current_lidx = lidx;
      init_vertex(v);
    }
    if (compute_threads_ > 1) build_degree_prefix();
  }

  /// Prefix sums of per-vertex chunk weights (out-degree + 1) over the
  /// rank's slice, in local-index order — the load model for degree-aware
  /// chunk splitting (the +1 keeps zero-degree vertices from collapsing
  /// into one chunk). Built once; the CSR is immutable.
  void build_degree_prefix() {
    const std::uint32_t n = num_local();
    degree_prefix_.resize(static_cast<std::size_t>(n) + 1);
    degree_prefix_[0] = 0;
    for (std::uint32_t lidx = 0; lidx < n; ++lidx) {
      degree_prefix_[lidx + 1] =
          degree_prefix_[lidx] + env_.dg->out(env_.rank, lidx).size() + 1;
    }
  }

  /// First index of `slot`'s chunk under the weight model `prefix` (a
  /// strictly increasing prefix-sum array): boundaries land where the
  /// cumulative weight crosses total * slot / slots. Chunks ascend with
  /// the slot index, so replaying per-slot channel staging in slot order
  /// reproduces the sequential (vertex-order) call sequence exactly.
  static std::uint32_t chunk_begin(const std::vector<std::uint64_t>& prefix,
                                   int slots, int slot) {
    const std::uint64_t total = prefix.back();
    const std::uint64_t target = total * static_cast<std::uint64_t>(slot) /
                                 static_cast<std::uint64_t>(slots);
    return static_cast<std::uint32_t>(
        std::lower_bound(prefix.begin(), prefix.end(), target) -
        prefix.begin());
  }

  void run_compute(std::uint32_t lidx) {
    detail::t_current_lidx = lidx;
    VertexT v = this->handle(lidx);
    compute(v);
  }

  void compute_phase() {
    const std::uint32_t n = num_local();
    if (n == 0 || !this->active_.any()) return;
    // Dense/sparse dispatch: shared with the baselines (VertexColumns).
    const bool sparse = this->frontier_is_sparse();
    const int threads = compute_threads_;

    if (threads <= 1) {
      const double cpu0 = runtime::thread_cpu_seconds();
      if (sparse) {
        // Sparse superstep: word-scan the frontier; cost scales with the
        // active count, not V.
        this->active_.for_each_set(
            [this](std::uint32_t lidx) { run_compute(lidx); });
      } else {
        for (std::uint32_t lidx = 0; lidx < n; ++lidx) {
          if (!this->active_.test(lidx)) continue;
          run_compute(lidx);
        }
      }
      compute_cpu_seconds_ += runtime::thread_cpu_seconds() - cpu0;
      return;
    }

    runtime::ComputePool& pool = this->pool();
    // Pinned schedule: one chunk per slot (chunk index == slot index).
    // Stealing schedule: over-decompose so a thief has grain to take.
    const int chunks =
        steal_enabled_ ? threads * runtime::kStealChunksPerSlot : threads;
    for (Channel* c : channels_) c->begin_compute(chunks);
    if (sparse) {
      // Materialize the frontier (ascending), weight it by degree, and
      // split the *list* so every chunk is a contiguous, balanced run.
      frontier_.clear();
      this->active_.for_each_set(
          [this](std::uint32_t lidx) { frontier_.push_back(lidx); });
      frontier_weight_.resize(frontier_.size() + 1);
      frontier_weight_[0] = 0;
      for (std::size_t i = 0; i < frontier_.size(); ++i) {
        frontier_weight_[i + 1] =
            frontier_weight_[i] +
            env_.dg->out(env_.rank, frontier_[i]).size() + 1;
      }
    }
    const std::vector<std::uint64_t>& prefix =
        sparse ? frontier_weight_ : degree_prefix_;

    // Every chunk is a contiguous ascending index range, executed by
    // exactly one thread; t_compute_chunk keys the channel staging,
    // t_compute_slot keys per-thread algorithm scratch.
    const auto run_chunk = [&](int chunk) {
      detail::t_compute_chunk = chunk;
      const std::uint32_t begin = chunk_begin(prefix, chunks, chunk);
      const std::uint32_t end = chunk_begin(prefix, chunks, chunk + 1);
      if (sparse) {
        for (std::uint32_t i = begin; i < end; ++i) {
          run_compute(frontier_[i]);
        }
      } else {
        for (std::uint32_t lidx = begin; lidx < end; ++lidx) {
          if (!this->active_.test(lidx)) continue;
          run_compute(lidx);
        }
      }
    };

    // Per-slot CPU time of the phase: the slot-imbalance observability
    // RunStats reports (resized before the fork — each slot then writes
    // only its own element). CPU rather than wall time, so the figure
    // survives an oversubscribed host (see thread_cpu_seconds()).
    if (static_cast<int>(stats_.compute_slot_seconds.size()) < threads) {
      stats_.compute_slot_seconds.resize(static_cast<std::size_t>(threads),
                                         0.0);
    }
    double phase_before = 0.0;
    for (const double s : stats_.compute_slot_seconds) phase_before += s;
    if (steal_enabled_) {
      runtime::ChunkScheduler sched(threads, chunks);
      pool.run([&](int slot) {
        const double s0 = runtime::thread_cpu_seconds();
        detail::t_compute_slot = slot;
        for (int chunk; (chunk = sched.next(slot)) >= 0;) run_chunk(chunk);
        detail::t_compute_slot = 0;
        detail::t_compute_chunk = 0;
        stats_.compute_slot_seconds[static_cast<std::size_t>(slot)] +=
            runtime::thread_cpu_seconds() - s0;
      });
    } else {
      pool.run([&](int slot) {
        const double s0 = runtime::thread_cpu_seconds();
        detail::t_compute_slot = slot;
        run_chunk(slot);
        detail::t_compute_slot = 0;
        detail::t_compute_chunk = 0;
        stats_.compute_slot_seconds[static_cast<std::size_t>(slot)] +=
            runtime::thread_cpu_seconds() - s0;
      });
    }
    // The rank's compute CPU total is the sum of what its slots burned
    // this phase (the pool joined, so the slot entries are quiescent).
    double phase_after = 0.0;
    for (const double s : stats_.compute_slot_seconds) phase_after += s;
    compute_cpu_seconds_ += phase_after - phase_before;
    for (Channel* c : channels_) c->end_compute();
  }

  /// O(1): the ActiveSet maintains an exact cached popcount.
  [[nodiscard]] bool any_active_vertex() const {
    return this->active_.any();
  }

  /// Collective per-superstep direction decision (DESIGN.md section 9),
  /// made BEFORE the compute phase so publish() already knows whether to
  /// stage per-edge messages (push) or store one published value (pull).
  /// Forced modes need no communication; the adaptive heuristic folds the
  /// frontier size across the team (pull_capable() is a lifetime constant
  /// identical on every rank, so every rank enters this collective — or
  /// skips it — in lock-step). The chosen direction is recorded per
  /// superstep; merge_from() asserts the ranks agreed.
  void decide_direction() {
    bool any_pull = false;
    for (Channel* c : channels_) any_pull |= c->pull_capable();
    Direction dir = Direction::kPush;
    if (any_pull) {
      switch (direction_mode()) {
        case DirectionMode::kPush:
          break;
        case DirectionMode::kPull:
          dir = Direction::kPull;
          break;
        case DirectionMode::kAdaptive: {
          const std::uint64_t global_active =
              env_.transport->allreduce_sum(env_.rank, this->active_.count());
          dir = adaptive_direction(direction_, global_active, get_vnum());
          break;
        }
      }
    }
    direction_ = dir;
    for (Channel* c : channels_) {
      if (c->pull_capable()) c->set_direction(dir);
    }
    stats_.note_direction(static_cast<std::uint8_t>(dir));
  }

  /// The communication loop of Fig. 4: all channels start the superstep
  /// active; a channel remains in the loop while any worker's again() says
  /// so. Every round ends with one collective buffer exchange. Each active
  /// channel's payloads ride in its own frame lane; the exchange accounts
  /// the payload bytes per channel and validates the reads.
  ///
  /// Channels fan their serialize and delivery over compute_threads() pool
  /// slots themselves; the result is byte- and result-identical for any
  /// slot count (DESIGN.md §8).
  void communicate() {
    std::uint64_t local_mask = 0;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      local_mask |= (std::uint64_t{1} << i);
    }
    while (true) {
      const std::uint64_t mask =
          env_.transport->allreduce_or(env_.rank, local_mask);
      if (mask == 0) break;
      local_mask = bulk_round(mask);
    }
  }

  /// One bulk communication round: the three-barrier schedule (all
  /// serialize, one collective exchange, all deliver).
  std::uint64_t bulk_round(std::uint64_t mask) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      if ((mask >> i) & 1u) {
        env_.exchange->begin_frames(env_.rank, static_cast<int>(i));
        channels_[i]->serialize();
        stats_.bytes_by_channel[channels_[i]->name()] +=
            env_.exchange->end_frames(env_.rank, static_cast<int>(i));
      }
    }
    const auto t1 = Clock::now();
    env_.exchange->exchange(env_.rank);
    ++stats_.comm_rounds;
    const auto t2 = Clock::now();

    std::uint64_t next_mask = 0;
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      if ((mask >> i) & 1u) {
        env_.exchange->open_frames(env_.rank, static_cast<int>(i),
                                   channels_[i]->name());
        channels_[i]->deserialize();
        env_.exchange->close_frames(env_.rank, static_cast<int>(i),
                                    channels_[i]->name());
        if (channels_[i]->again()) next_mask |= (std::uint64_t{1} << i);
      }
    }
    stats_.serialize_seconds += seconds_between(t0, t1);
    stats_.exchange_seconds += seconds_between(t1, t2);
    stats_.deliver_seconds += seconds_between(t2, Clock::now());
    return next_mask;
  }

  /// Work stealing between compute slots (PGCH_STEAL / set_steal()); only
  /// meaningful with compute_threads_ > 1.
  bool steal_enabled_ = runtime::steal_from_env();

  /// Previous superstep's direction — the hysteresis state of the
  /// adaptive heuristic (collective inputs, so identical on every rank).
  Direction direction_ = Direction::kPush;

  // Degree-aware chunking state (parallel compute phase only).
  std::vector<std::uint64_t> degree_prefix_;    ///< all-vertex weights
  std::vector<std::uint32_t> frontier_;         ///< sparse-superstep scratch
  std::vector<std::uint64_t> frontier_weight_;  ///< its weight prefix
};

// ---------------------------------------------------------------------------
// launch(): build the runtime, spawn the team, run the algorithm.
// ---------------------------------------------------------------------------

namespace detail {

/// One rank's run: install the Env, construct the worker, run, collect.
template <typename WorkerT>
runtime::RunStats run_rank(
    const graph::DistributedGraph& dg, runtime::Exchange& exchange,
    runtime::Transport& transport, int rank,
    const std::function<void(WorkerT&)>& configure,
    const std::function<void(WorkerT&, int)>& collect) {
  detail::Env env{&dg, &exchange, &transport, rank};
  detail::t_env = &env;
  WorkerT worker;
  detail::t_env = nullptr;
  if (configure) configure(worker);
  runtime::RunStats stats = worker.run();
  if (collect) collect(worker, rank);
  return stats;
}

}  // namespace detail

/// Run ONE rank of a distributed team over an already-connected remote
/// transport: this process computes `rank`'s slice (served from a
/// localized copy of the partition — the shared CSR is dropped), and the
/// per-rank statistics are folded across the team over the transport's
/// control lane, so every process returns the same team-global RunStats
/// an in-process run would report.
template <typename WorkerT>
runtime::RunStats launch_distributed(
    const graph::DistributedGraph& dg, runtime::Transport& transport,
    int rank, const std::function<void(WorkerT&)>& configure = nullptr,
    const std::function<void(WorkerT&, int)>& collect = nullptr) {
  if (transport.world_size() != dg.num_workers()) {
    throw std::invalid_argument(
        "launch_distributed: transport world size (" +
        std::to_string(transport.world_size()) +
        ") != partition worker count (" + std::to_string(dg.num_workers()) +
        ")");
  }
  const graph::DistributedGraph local = dg.localized(rank);
  runtime::Exchange exchange(transport);
  runtime::RunStats stats = detail::run_rank<WorkerT>(
      local, exchange, transport, rank, configure, collect);

  // Fold the per-rank records into the team-global one at rank 0, then
  // hand the result back to everyone.
  runtime::Buffer mine;
  stats.serialize(mine);
  std::vector<runtime::Buffer> blobs = transport.gather_to_root(rank, mine);
  runtime::Buffer merged;
  if (rank == 0) {
    runtime::RunStats folded = runtime::RunStats::deserialize(blobs[0]);
    for (std::size_t r = 1; r < blobs.size(); ++r) {
      const runtime::RunStats other = runtime::RunStats::deserialize(blobs[r]);
      folded.merge_from(other);
    }
    folded.serialize(merged);
  }
  transport.broadcast_from_root(rank, &merged);
  merged.rewind();
  return runtime::RunStats::deserialize(merged);
}

/// Build and connect the TCP transport a LaunchConfig describes (rank
/// endpoints, full-mesh handshake). Used by launch() and by callers that
/// need the transport to outlive the run (e.g. result all-gathers).
inline std::unique_ptr<runtime::TcpTransport> connect_tcp(
    const LaunchConfig& config, int num_workers) {
  const int world = config.world_size > 0 ? config.world_size : num_workers;
  if (world != num_workers) {
    throw std::invalid_argument(
        "launch: PGCH_WORLD (" + std::to_string(world) +
        ") != partition worker count (" + std::to_string(num_workers) +
        ") — build the partition with the team size");
  }
  auto transport = std::make_unique<runtime::TcpTransport>(
      config.rank, world, config.endpoint_of(config.rank));
  std::vector<runtime::TcpEndpoint> peers;
  peers.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) peers.push_back(config.endpoint_of(r));
  transport->connect_mesh(peers, config.connect_timeout_s);
  return transport;
}

/// Run WorkerT over a distributed graph under an explicit LaunchConfig.
/// `configure` (optional) is invoked on each rank's worker before the
/// superstep loop (set sources, iteration caps, ...). `collect` (optional)
/// is invoked on each rank's worker after the run; it executes
/// concurrently across ranks, so it must only write rank-disjoint
/// locations (e.g. index a global array by vertex id). Returns the
/// per-rank statistics folded with RunStats::merge_from (max wall time,
/// summed per-rank counters, globally-agreed counts verbatim).
///
/// kInProcess: spawns one thread per rank in this process (the original
/// simulator substrate). kTcp: this process runs only config.rank; the
/// rest of the team are peer processes (tools/pgch_launch spawns them),
/// and `collect` sees only this rank's vertices.
template <typename WorkerT>
runtime::RunStats launch(
    const graph::DistributedGraph& dg, const LaunchConfig& config,
    const std::function<void(WorkerT&)>& configure = nullptr,
    const std::function<void(WorkerT&, int)>& collect = nullptr) {
  const int num_workers = dg.num_workers();

  if (config.transport == runtime::TransportKind::kTcp) {
    // Survivor-side recovery (DESIGN.md section 12): when a peer dies
    // mid-run the transport surfaces a TransportError. With recovery
    // attempts configured (PGCH_RECOVERY_ATTEMPTS — pgch_launch sets it
    // alongside --max-restarts), this rank tears the dead mesh down,
    // requests a checkpoint restore from the engine it is about to
    // rebuild (PGCH_RESUME=auto — process-local, one process per rank
    // under kTcp), re-runs the mesh handshake (waiting for the
    // supervisor's respawned rank), and replays from the last committed
    // epoch the surviving team agrees on.
    for (int attempt = 0;; ++attempt) {
      try {
        const auto transport = connect_tcp(config, num_workers);
        return launch_distributed<WorkerT>(dg, *transport, config.rank,
                                           configure, collect);
      } catch (const runtime::TransportError& e) {
        if (attempt >= config.recovery_attempts) throw;
        std::fprintf(stderr,
                     "[pgch] rank %d: transport failure (%s); rejoining the "
                     "team (attempt %d of %d)\n",
                     config.rank, e.what(), attempt + 1,
                     config.recovery_attempts);
        std::fflush(stderr);
#ifndef _WIN32
        ::setenv("PGCH_RESUME", "auto", 1);
#endif
      }
    }
  }

  runtime::InProcessTransport transport(num_workers);
  runtime::Exchange exchange(transport);
  std::vector<runtime::RunStats> per_rank(
      static_cast<std::size_t>(num_workers));
  runtime::WorkerTeam::run(num_workers, [&](int rank) {
    per_rank[static_cast<std::size_t>(rank)] = detail::run_rank<WorkerT>(
        dg, exchange, transport, rank, configure, collect);
  });

  runtime::RunStats merged = per_rank[0];
  for (int r = 1; r < num_workers; ++r) {
    merged.merge_from(per_rank[static_cast<std::size_t>(r)]);
  }
  return merged;
}

/// Environment-configured form: tools/pgch_launch selects the transport,
/// rank and endpoints through PGCH_* variables (launch_config.hpp), so
/// the same example/bench binary runs in-process or as one rank of a
/// multi-process team without a code change.
template <typename WorkerT>
runtime::RunStats launch(
    const graph::DistributedGraph& dg,
    const std::function<void(WorkerT&)>& configure = nullptr,
    const std::function<void(WorkerT&, int)>& collect = nullptr) {
  return launch<WorkerT>(dg, LaunchConfig::from_env(), configure, collect);
}

}  // namespace pregel::core
