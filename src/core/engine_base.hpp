#pragma once
// EngineBase: the shared engine substrate (DESIGN.md section 2).
//
// All three engines — the channel-based Worker (paper Fig. 4), the
// Pregel+-style PPWorker baseline and the Blogel-style BlockWorker
// baseline — run the same outer loop: acquire the runtime Env, load the
// rank's vertex slice, then repeat supersteps until a global quiescence
// vote says no worker has active work (and no program asked for another
// superstep, wants_next_superstep()), collecting wall-clock time and
// exchange statistics at the end. EngineBase owns that loop; engines
// implement prepare() (per-rank loading before the first superstep) and
// superstep() (one superstep's compute + communication, returning whether
// this rank still has active work).
//
// Construction happens inside launch(), which provides the Env through a
// thread-local so user engine subclasses keep the paper's
// default-constructor shape.

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/channel.hpp"  // detail::Env / t_env
#include "core/launch_config.hpp"  // FaultSpec
#include "graph/distributed.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/compute_pool.hpp"
#include "runtime/stats.hpp"

namespace pregel::core {

class EngineBase {
 public:
  virtual ~EngineBase() = default;

  EngineBase(const EngineBase&) = delete;
  EngineBase& operator=(const EngineBase&) = delete;

  // ---- identity ---------------------------------------------------------
  [[nodiscard]] int rank() const noexcept { return env_.rank; }
  [[nodiscard]] int num_workers() const noexcept {
    return env_.dg->num_workers();
  }
  /// 1-based superstep number, as in Pregel.
  [[nodiscard]] int step_num() const noexcept { return step_; }
  [[nodiscard]] std::uint64_t get_vnum() const noexcept {
    return env_.dg->num_vertices();
  }
  [[nodiscard]] std::uint64_t get_enum() const noexcept {
    return env_.dg->num_edges();
  }
  [[nodiscard]] std::uint32_t num_local() const {
    return env_.dg->num_local(env_.rank);
  }
  [[nodiscard]] const graph::DistributedGraph& dgraph() const noexcept {
    return *env_.dg;
  }

  [[nodiscard]] const runtime::RunStats& stats() const noexcept {
    return stats_;
  }

  // ---- intra-rank parallelism (DESIGN.md sections 3 and 8) --------------

  /// Intra-rank parallelism: the channel Worker's compute chunks and every
  /// engine's comm fan-out (run_comm_partitioned) run over this many pool
  /// slots. Defaults to PGCH_COMPUTE_THREADS; 1 runs everything inline on
  /// the rank thread. Results and wire bytes are identical for any value.
  /// Must be set before run().
  void set_compute_threads(int threads) {
    compute_threads_ = threads > 1 ? threads : 1;
    pool_.reset();
  }
  [[nodiscard]] int compute_threads() const noexcept {
    return compute_threads_;
  }

  /// The rank's thread pool, created on first use with exactly
  /// compute_threads() slots. Only call with compute_threads() > 1.
  runtime::ComputePool& pool() {
    if (!pool_) {
      pool_ = std::make_unique<runtime::ComputePool>(compute_threads_);
    }
    return *pool_;
  }

  /// The shared shape of every parallel comm path: run
  /// `apply(lo, hi, slot)` over the contiguous range partition of
  /// [0, n_items) — on the calling thread as apply(0, n_items, 0) at one
  /// thread or when `total_work` is below the parallel threshold (both
  /// paths must produce identical bytes, so the switch is free), else
  /// fanned over the pool. `touched` (optional) is grown to one list per
  /// slot first — the per-slot receive-touched bookkeeping
  /// delivery paths key by their slot argument.
  template <typename ApplyRange>
  void run_comm_partitioned(std::uint64_t total_work, std::uint32_t n_items,
                            std::vector<std::vector<std::uint32_t>>* touched,
                            ApplyRange&& apply) {
    const int threads = compute_threads_;
    if (threads <= 1 || total_work < kParallelCommMinItems) {
      apply(std::uint32_t{0}, n_items, 0);
      return;
    }
    if (touched != nullptr &&
        static_cast<int>(touched->size()) < threads) {
      touched->resize(static_cast<std::size_t>(threads));
    }
    pool().run([&](int slot) {
      const auto [lo, hi] = detail::item_range(n_items, threads, slot);
      apply(static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi),
            slot);
    });
  }

  // ---- fault tolerance (DESIGN.md section 12) ----------------------------

  /// Override the env-derived checkpoint configuration
  /// (PGCH_CHECKPOINT_EVERY / PGCH_CHECKPOINT_DIR / PGCH_RESUME). Must be
  /// identical on every rank (the commit barrier and the restore epoch
  /// agreement are collective) and set before run().
  void set_checkpoint(runtime::CheckpointConfig cfg) {
    ckpt_ = std::move(cfg);
  }
  [[nodiscard]] const runtime::CheckpointConfig& checkpoint_config()
      const noexcept {
    return ckpt_;
  }

  /// Override the env-derived fault injection spec (PGCH_FAULT). Tests
  /// only; set before run().
  void set_fault(FaultSpec spec) { fault_ = spec; }

  /// Drive the superstep loop to global quiescence. Collective: every rank
  /// of the team calls run() on its own engine instance.
  runtime::RunStats run() {
    prepare();
    const int resume_step = negotiate_restore();
    env_.transport->barrier(env_.rank);

    const auto t0 = std::chrono::steady_clock::now();
    step_ = resume_step;
    while (true) {
      ++step_;
      maybe_inject_fault();
      const runtime::Exchange& ex = *env_.exchange;
      const std::uint64_t bytes0 = ex.sent_bytes(env_.rank);
      const std::uint64_t batches0 = ex.sent_batches(env_.rank);
      const std::uint64_t frames0 = ex.frame_overhead_bytes(env_.rank);
      const bool any_local_active = superstep();
      // Accumulated per superstep, like every other counter a checkpoint
      // carries: a resumed run's exchange starts at zero, so its totals
      // are the restored ones plus the replayed supersteps'.
      const std::uint64_t bytes = ex.sent_bytes(env_.rank) - bytes0;
      stats_.bytes_per_superstep.push_back(bytes);
      stats_.message_bytes += bytes;
      stats_.message_batches += ex.sent_batches(env_.rank) - batches0;
      stats_.frame_bytes += ex.frame_overhead_bytes(env_.rank) - frames0;
      if (!env_.transport->vote_any(
              env_.rank, any_local_active || wants_next_superstep())) {
        break;
      }
      maybe_checkpoint();
    }
    const auto t1 = std::chrono::steady_clock::now();

    stats_.seconds = std::chrono::duration<double>(t1 - t0).count();
    stats_.supersteps = step_;
    // This rank's contribution to the per-rank compute-time vector; the
    // stats folds (in-process loop, TCP gather) concatenate these in
    // ascending rank order, so the merged record's max/mean is the
    // cross-rank load imbalance the partitioner left behind. CPU time
    // when the engine metered it (the channel Worker does) — wall time
    // would converge across ranks on an oversubscribed host and hide the
    // skew; engines that don't meter CPU fall back to their compute wall
    // split.
    stats_.rank_compute_seconds.assign(
        1, compute_cpu_seconds_ > 0.0 ? compute_cpu_seconds_
                                      : stats_.compute_seconds);
    return stats_;
  }

 protected:
  /// Validates that construction happens inside launch() and captures the
  /// rank's Env. `engine_name` personalizes the error message.
  explicit EngineBase(const char* engine_name) {
    if (detail::t_env == nullptr) {
      throw std::logic_error(
          std::string(engine_name) +
          " must be constructed inside pregel::core::launch()");
    }
    env_ = *detail::t_env;
  }

  /// Per-rank loading before the first superstep (vertex slice, channel
  /// initialization, block grouping, ...). Runs before the team-wide
  /// start barrier.
  virtual void prepare() = 0;

  /// One superstep: compute + communication. Returns whether this rank
  /// still has locally active work; the quiescence vote folds that across
  /// the team.
  virtual bool superstep() = 0;

  /// Pregel's master-compute "continue" bit: a program whose next
  /// superstep starts work no message announces (a phase change that
  /// re-activates vertices in begin_superstep()) returns true so the
  /// team runs that superstep even when every vertex has halted. It
  /// rides in the existing quiescence vote — no extra collective — and
  /// must agree on every rank (decide it from globally consistent state:
  /// step_num(), aggregator results, the program's phase).
  [[nodiscard]] virtual bool wants_next_superstep() const { return false; }

  // ---- checkpoint hooks (DESIGN.md section 12) ---------------------------
  // Engines that support checkpointing freeze every bit of state a
  // superstep boundary carries forward (vertex values, frontier, channel
  // receive state, accumulated stats) so a restored run replays
  // bitwise-identically. The defaults refuse: enabling
  // PGCH_CHECKPOINT_EVERY on an engine without them fails loudly at the
  // first checkpoint, never silently restoring garbage.

  /// Append this rank's superstep-boundary state to `out`.
  virtual void checkpoint_save(runtime::Buffer& /*out*/) {
    throw std::logic_error(
        "this engine does not support checkpointing "
        "(PGCH_CHECKPOINT_EVERY requires checkpoint_save/restore)");
  }

  /// Restore state written by checkpoint_save() after prepare() has
  /// rebuilt the engine's fresh shape.
  virtual void checkpoint_restore(runtime::Buffer& /*in*/) {
    throw std::logic_error(
        "this engine does not support checkpointing "
        "(PGCH_CHECKPOINT_EVERY requires checkpoint_save/restore)");
  }

 private:
  /// Collective restore-epoch agreement, run between prepare() and the
  /// start barrier. Each rank proposes its best locally valid committed
  /// epoch (0 when starting fresh or holding no usable file); the team
  /// agrees on the minimum — the newest epoch EVERY rank can actually
  /// load (a rank whose newest file is corrupt pulls the whole team back
  /// to the previous committed epoch, which retention keeps on disk).
  /// Returns the superstep count already executed (0 = fresh start).
  int negotiate_restore() {
    if (!ckpt_.enabled() && !ckpt_.resume) return 0;
    std::uint64_t proposal = 0;
    if (ckpt_.resume) {
      const int marker = runtime::read_latest_marker(ckpt_.dir, num_workers());
      int at_most = ckpt_.resume_epoch >= 0 ? ckpt_.resume_epoch : marker;
      if (at_most < 0) at_most = INT_MAX;  // no marker: scan everything
      const int best = runtime::latest_valid_epoch(ckpt_.dir, env_.rank,
                                                   num_workers(), at_most);
      if (best > 0) proposal = static_cast<std::uint64_t>(best);
    }
    runtime::Buffer local;
    local.write<std::uint64_t>(proposal);
    std::vector<runtime::Buffer> all =
        env_.transport->gather_to_root(env_.rank, local);
    runtime::Buffer agreed_blob;
    if (env_.rank == 0) {
      std::uint64_t agreed = proposal;
      for (runtime::Buffer& b : all) {
        agreed = std::min(agreed, b.read<std::uint64_t>());
      }
      agreed_blob.write<std::uint64_t>(agreed);
    }
    env_.transport->broadcast_from_root(env_.rank, &agreed_blob);
    agreed_blob.rewind();
    const int epoch = static_cast<int>(agreed_blob.read<std::uint64_t>());
    if (epoch <= 0) return 0;
    runtime::Buffer payload = runtime::load_checkpoint(
        ckpt_.dir, env_.rank, num_workers(), epoch);
    checkpoint_restore(payload);
    last_committed_ = epoch;
    std::fprintf(stderr,
                 "[pgch] rank %d: restored checkpoint epoch %d, resuming at "
                 "superstep %d\n",
                 env_.rank, epoch, epoch + 1);
    return epoch;
  }

  /// Two-phase checkpoint commit at the superstep boundary (only reached
  /// when the quiescence vote said "continue"). Phase one: every rank
  /// durably writes ckpt_r<rank>_e<step>.bin (temp + fsync + rename).
  /// Phase two: the barrier proves every file exists, then rank 0
  /// publishes the LATEST marker — so the marker never names an epoch
  /// with a missing or partial file. Retention keeps the previous
  /// committed epoch as the fallback for a corrupt newest file.
  void maybe_checkpoint() {
    if (!ckpt_.enabled() || step_ % ckpt_.every != 0) return;
    runtime::Buffer payload;
    checkpoint_save(payload);
    runtime::write_checkpoint(ckpt_.dir, env_.rank, num_workers(), step_,
                              payload);
    env_.transport->barrier(env_.rank);
    if (env_.rank == 0) {
      runtime::write_latest_marker(ckpt_.dir, step_, num_workers());
    }
    const int prev = last_committed_;
    last_committed_ = step_;
    if (prev > 0) runtime::prune_checkpoints(ckpt_.dir, env_.rank, prev);
  }

  /// Deterministic fault trigger, fired at the START of the matching
  /// superstep — after the previous boundary's checkpoint committed,
  /// before any of this superstep's collectives.
  void maybe_inject_fault() {
    if (!fault_.matches(env_.rank, step_)) return;
    switch (fault_.kind) {
      case FaultSpec::Kind::kExit:
        std::fprintf(stderr,
                     "[pgch] rank %d: injected fault: exit(%d) at superstep "
                     "%d\n",
                     env_.rank, FaultSpec::kExitCode, step_);
        std::fflush(stderr);
        std::_Exit(FaultSpec::kExitCode);
      case FaultSpec::Kind::kHang:
        std::fprintf(stderr,
                     "[pgch] rank %d: injected fault: hanging at superstep "
                     "%d\n",
                     env_.rank, step_);
        std::fflush(stderr);
        // Wedge without dying: peers must detect the silence via their
        // IO timeout, and the supervisor's SIGTERM reaps us.
        for (;;) {
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
      case FaultSpec::Kind::kCorrupt: {
        const int victim = last_committed_ > 0
                               ? last_committed_
                               : runtime::latest_valid_epoch(
                                     ckpt_.dir, env_.rank, num_workers(),
                                     INT_MAX);
        if (victim > 0) {
          runtime::corrupt_checkpoint(ckpt_.dir, env_.rank, victim);
        }
        std::fprintf(stderr,
                     "[pgch] rank %d: injected fault: corrupted checkpoint "
                     "epoch %d, exit(%d) at superstep %d\n",
                     env_.rank, victim, FaultSpec::kExitCode, step_);
        std::fflush(stderr);
        std::_Exit(FaultSpec::kExitCode);
      }
      case FaultSpec::Kind::kNone:
        break;
    }
  }

 protected:

  /// Timing helpers for the compute/communication wall-time split the
  /// engines accumulate into RunStats per superstep.
  using Clock = std::chrono::steady_clock;
  static double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  }

  detail::Env env_;
  int step_ = 0;
  runtime::RunStats stats_;
  /// Compute-phase CPU seconds this rank burned (engines that meter their
  /// compute phases accumulate here; feeds rank_compute_seconds).
  double compute_cpu_seconds_ = 0.0;
  int compute_threads_ = runtime::compute_threads_from_env();
  std::unique_ptr<runtime::ComputePool> pool_;

  /// Checkpoint knobs (re-read from env on every engine construction, so
  /// a recovery retry inside one process sees the resume request
  /// launch() set) and the deterministic fault to inject, if any.
  runtime::CheckpointConfig ckpt_ = runtime::CheckpointConfig::from_env();
  FaultSpec fault_ = FaultSpec::from_env();
  /// Newest committed checkpoint epoch this run wrote or restored; the
  /// previous one is the retention fallback until the next commit.
  int last_committed_ = -1;
};

}  // namespace pregel::core
