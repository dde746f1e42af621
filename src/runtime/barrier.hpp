#pragma once
// Barrier and AllReducer: the collective-synchronization substrate.
//
// The paper runs workers as MPI processes; here workers are threads that
// share no graph state. These primitives are the moral equivalent of
// MPI_Barrier and MPI_Allreduce: every global decision in the engines
// ("does any worker still have an active vertex?", "is any channel still
// active?", aggregator folds) goes through them.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <type_traits>
#include <vector>

#include "runtime/buffer.hpp"  // ProtocolError

namespace pregel::runtime {

/// The transport layer failed to move bytes (peer disappeared, malformed
/// wire message, endpoint unreachable, or an in-process team aborted
/// because one of its ranks failed). Distinct from FrameMismatchError,
/// which means the bytes arrived but a channel misread them.
class TransportError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

/// Reusable counting barrier for a fixed-size worker team.
///
/// The last thread to arrive optionally runs a completion function while
/// all other threads are still blocked; this is how the BufferExchange
/// performs its swap atomically with respect to the team.
class Barrier {
 public:
  explicit Barrier(int num_threads) : num_threads_(num_threads) {}

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  void arrive_and_wait() { arrive_and_wait(nullptr); }

  /// All threads of the team must call this with a semantically identical
  /// completion (or none); exactly one invocation runs.
  template <typename Completion>
  void arrive_and_wait(Completion&& completion) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (aborted_) throw_aborted();
    const std::uint64_t my_gen = generation_;
    if (++arrived_ == num_threads_) {
      if constexpr (!std::is_same_v<std::decay_t<Completion>,
                                    std::nullptr_t>) {
        completion();
      }
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != my_gen || aborted_; });
      if (generation_ == my_gen) throw_aborted();
    }
  }

  /// Fail the team: wake every waiter and make every current and later
  /// arrive_and_wait() throw TransportError. A rank that failed calls
  /// this so peers blocked at (or heading for) a collective fail too
  /// instead of waiting forever for it. Idempotent.
  void abort() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      aborted_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] int team_size() const noexcept { return num_threads_; }

 private:
  [[noreturn]] static void throw_aborted() {
    throw TransportError("barrier aborted: another rank of the team failed");
  }

  const int num_threads_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  bool aborted_ = false;
};

/// All-reduce over a worker team: every rank contributes a value, every
/// rank observes the fold of all contributions.
///
/// One barrier round per reduce; the result is stored before release and
/// each rank reads it after release, which is safe because the result slot
/// is only rewritten by the completion of the *next* barrier generation
/// (which cannot begin until every rank has left this one).
template <typename T>
class AllReducer {
 public:
  AllReducer(int num_workers, Barrier& barrier)
      : barrier_(barrier), slots_(static_cast<std::size_t>(num_workers)) {}

  template <typename BinaryOp>
  T reduce(int rank, const T& local, BinaryOp op, T identity) {
    slots_[static_cast<std::size_t>(rank)].value = local;
    barrier_.arrive_and_wait([&] {
      T acc = identity;
      for (const auto& s : slots_) acc = op(acc, s.value);
      result_ = acc;
    });
    return result_;
  }

  /// Logical OR (T must be bool-convertible under op below).
  bool any(int rank, bool local) {
    return reduce(rank, static_cast<T>(local),
                  [](T a, T b) { return static_cast<T>(a || b); },
                  static_cast<T>(false)) != static_cast<T>(false);
  }

  bool all(int rank, bool local) {
    return reduce(rank, static_cast<T>(local),
                  [](T a, T b) { return static_cast<T>(a && b); },
                  static_cast<T>(true)) != static_cast<T>(false);
  }

  T sum(int rank, const T& local) {
    return reduce(rank, local, [](T a, T b) { return a + b; }, T{});
  }

  T max(int rank, const T& local) {
    return reduce(rank, local, [](T a, T b) { return a > b ? a : b; },
                  std::numeric_limits<T>::lowest());
  }

 private:
  // Pad slots so concurrent rank writes do not false-share.
  struct alignas(64) Slot {
    T value{};
  };

  Barrier& barrier_;
  std::vector<Slot> slots_;
  T result_{};
};

}  // namespace pregel::runtime
