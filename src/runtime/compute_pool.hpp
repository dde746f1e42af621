#pragma once
// ComputePool: a small persistent thread pool for the intra-rank parallel
// compute and communication phases (PGCH_COMPUTE_THREADS, see DESIGN.md
// sections 3 and 8).
//
// One pool belongs to exactly one worker rank. run(fn) executes fn(slot)
// for every slot in [0, slots): slot 0 runs on the calling (rank) thread,
// slots 1.. run on the pool's persistent threads; run() returns after all
// slots finish and rethrows the first exception any slot raised. Slots are
// stable across run() calls, so callers may key per-thread staging by slot
// index and rely on a deterministic slot -> chunk mapping.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <ctime>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/env.hpp"

namespace pregel::runtime {

/// Intra-rank compute parallelism requested via the PGCH_COMPUTE_THREADS
/// environment variable (unset / <= 1 = sequential compute phase). Read
/// per call so tests and launch-time configuration can override it.
inline int compute_threads_from_env() {
  return env_int("PGCH_COMPUTE_THREADS", 1, 1);
}

/// Intra-rank parallelism of the communication phase: the same count as
/// the compute phase (one pool serves both). Kept under this name for the
/// perfbench config record, which prints it.
inline int comm_threads_from_env() { return compute_threads_from_env(); }

/// Work stealing between compute slots, requested via PGCH_STEAL=1 (off
/// by default; needs compute threads > 1 to take effect). The compute
/// phase over-decomposes into kStealChunksPerSlot chunks per slot and
/// idle slots steal chunks from busy ones; channel staging is keyed by
/// chunk index and replayed in chunk order, so results stay
/// bitwise-identical to the pinned schedule (DESIGN.md section 11).
inline bool steal_from_env() { return env_bool("PGCH_STEAL", false); }

/// Over-decomposition factor of the stealing schedule: chunks per slot.
/// 4x gives a thief useful grain to take without inflating the per-chunk
/// staging bookkeeping.
inline constexpr int kStealChunksPerSlot = 4;

/// CPU seconds consumed by the CALLING thread so far. The imbalance
/// observability (RunStats::compute_slot_seconds / rank_compute_seconds)
/// meters compute in CPU time, not wall time: on an oversubscribed host
/// concurrent ranks time-slice the same cores, their compute wall clocks
/// converge, and exactly the skew the metric exists to expose disappears
/// from it. Falls back to a wall clock where no per-thread CPU clock
/// exists.
inline double thread_cpu_seconds() {
#ifdef _WIN32
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
#else
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
#endif
}

/// Chunk dispenser of the stealing compute phase. Chunk indices
/// [0, chunks) are dealt into one contiguous deque per slot (slot s
/// initially owns the chunks a pinned schedule would have given it, split
/// kStealChunksPerSlot ways); each slot drains its own deque front-to-back
/// via an atomic cursor, then scans the other slots' deques in ring order
/// and steals from whichever still has work. Which slot *executes* a chunk
/// is scheduling-dependent; correctness only needs every chunk claimed
/// exactly once, which the fetch_add claim guarantees.
class ChunkScheduler {
 public:
  ChunkScheduler(int slots, int chunks)
      : slots_(slots),
        begins_(static_cast<std::size_t>(slots) + 1),
        cursors_(static_cast<std::size_t>(slots)) {
    for (int s = 0; s <= slots; ++s) {
      begins_[static_cast<std::size_t>(s)] =
          static_cast<int>(static_cast<std::int64_t>(chunks) * s / slots);
    }
    for (int s = 0; s < slots; ++s) {
      cursors_[static_cast<std::size_t>(s)].store(
          begins_[static_cast<std::size_t>(s)], std::memory_order_relaxed);
    }
  }

  /// Claim the next chunk for `slot` (own deque first, then steal), or -1
  /// when every deque is drained. Relaxed ordering suffices: the claim is
  /// an atomic RMW (no chunk is handed out twice), and the pool's fork and
  /// join provide the happens-before edges around the phase.
  int next(int slot) {
    for (int k = 0; k < slots_; ++k) {
      const auto q = static_cast<std::size_t>((slot + k) % slots_);
      const int c = cursors_[q].fetch_add(1, std::memory_order_relaxed);
      if (c < begins_[q + 1]) return c;
    }
    return -1;
  }

 private:
  const int slots_;
  std::vector<int> begins_;
  std::vector<std::atomic<int>> cursors_;
};

class ComputePool {
 public:
  /// A pool with `slots` total slots (slots - 1 spawned threads).
  explicit ComputePool(int slots) : slots_(slots) {
    if (slots < 2) {
      throw std::invalid_argument("ComputePool: need at least 2 slots");
    }
    errors_.resize(static_cast<std::size_t>(slots));
    threads_.reserve(static_cast<std::size_t>(slots - 1));
    for (int slot = 1; slot < slots; ++slot) {
      threads_.emplace_back([this, slot] { worker_loop(slot); });
    }
  }

  ~ComputePool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  ComputePool(const ComputePool&) = delete;
  ComputePool& operator=(const ComputePool&) = delete;

  [[nodiscard]] int slots() const noexcept { return slots_; }

  /// Run fn(slot) on every slot; the caller executes slot 0. Rethrows the
  /// first exception (lowest slot) after all slots finished.
  void run(const std::function<void(int)>& fn) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &fn;
      pending_ = slots_ - 1;
      ++generation_;
    }
    cv_.notify_all();

    try {
      fn(0);
    } catch (...) {
      errors_[0] = std::current_exception();
    }

    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [this] { return pending_ == 0; });
      job_ = nullptr;
    }
    for (auto& e : errors_) {
      if (e) {
        const std::exception_ptr err = e;
        for (auto& clear : errors_) clear = nullptr;
        std::rethrow_exception(err);
      }
    }
  }

 private:
  void worker_loop(int slot) {
    std::uint64_t seen_generation = 0;
    while (true) {
      const std::function<void(int)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] {
          return stop_ || generation_ != seen_generation;
        });
        if (stop_) return;
        seen_generation = generation_;
        job = job_;
      }
      try {
        (*job)(slot);
      } catch (...) {
        errors_[static_cast<std::size_t>(slot)] = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--pending_ == 0) done_cv_.notify_one();
      }
    }
  }

  const int slots_;
  std::vector<std::thread> threads_;
  std::vector<std::exception_ptr> errors_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;
};

}  // namespace pregel::runtime
