#pragma once
// WorkerTeam: spawns one thread per worker rank and runs a callable on
// each. This replaces `mpirun -n W` in the paper's setting: ranks share no
// graph state and may communicate only through the BufferExchange / the
// reducers they are handed.

#include <atomic>
#include <exception>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pregel::runtime {

class WorkerTeam {
 public:
  /// Run fn(rank) on `num_workers` threads. When a rank throws, `on_error`
  /// (optional) runs on that rank's thread: launch() passes one that
  /// aborts the team's collectives, so peers blocked in one fail instead
  /// of waiting forever for the failed rank. After all threads have
  /// joined, rethrows the exception of the first rank to fail — the root
  /// cause, not a peer's secondary abort error.
  template <typename Fn>
  static void run(int num_workers, Fn&& fn,
                  const std::function<void()>& on_error = nullptr) {
    if (num_workers <= 0) {
      throw std::invalid_argument("WorkerTeam: num_workers must be >= 1");
    }
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(
        static_cast<std::size_t>(num_workers));
    std::atomic<int> first_failed{-1};
    threads.reserve(static_cast<std::size_t>(num_workers));
    for (int rank = 0; rank < num_workers; ++rank) {
      threads.emplace_back([rank, &fn, &errors, &first_failed, &on_error] {
        try {
          fn(rank);
        } catch (...) {
          errors[static_cast<std::size_t>(rank)] = std::current_exception();
          int none = -1;
          first_failed.compare_exchange_strong(none, rank);
          if (on_error) on_error();
        }
      });
    }
    for (auto& t : threads) t.join();
    if (first_failed >= 0) {
      std::rethrow_exception(errors[static_cast<std::size_t>(first_failed)]);
    }
  }
};

}  // namespace pregel::runtime
