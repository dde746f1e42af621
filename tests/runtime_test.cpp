// Unit tests for the message-passing substrate: Buffer serialization,
// Barrier, AllReducer, BufferExchange, WorkerTeam and the strict parsing
// of the numeric PGCH_* knobs.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/launch_config.hpp"
#include "runtime/barrier.hpp"
#include "runtime/buffer.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/compute_pool.hpp"
#include "runtime/exchange.hpp"
#include "runtime/tcp_transport.hpp"
#include "runtime/team.hpp"
#include "scoped_env.hpp"

namespace {

using pregel::runtime::AllReducer;
using pregel::runtime::Barrier;
using pregel::runtime::Buffer;
using pregel::runtime::BufferExchange;
using pregel::runtime::WorkerTeam;
using pregel::testing::ScopedEnv;

// ---------------------------------------------------------------- Buffer --

TEST(Buffer, ScalarRoundTrip) {
  Buffer b;
  b.write<std::uint32_t>(42);
  b.write<double>(3.5);
  b.write<std::int8_t>(-7);
  EXPECT_EQ(b.size(), sizeof(std::uint32_t) + sizeof(double) + 1);
  EXPECT_EQ(b.read<std::uint32_t>(), 42u);
  EXPECT_DOUBLE_EQ(b.read<double>(), 3.5);
  EXPECT_EQ(b.read<std::int8_t>(), -7);
  EXPECT_TRUE(b.exhausted());
}

TEST(Buffer, StructRoundTrip) {
  struct Wire {
    std::uint32_t a;
    float b;
  };
  Buffer buf;
  buf.write(Wire{7, 2.5f});
  const auto w = buf.read<Wire>();
  EXPECT_EQ(w.a, 7u);
  EXPECT_FLOAT_EQ(w.b, 2.5f);
}

TEST(Buffer, VectorRoundTrip) {
  Buffer b;
  std::vector<std::uint64_t> v{1, 2, 3, 5, 8};
  b.write_vector(v);
  EXPECT_EQ(b.read_vector<std::uint64_t>(), v);
}

TEST(Buffer, EmptyVectorRoundTrip) {
  Buffer b;
  b.write_vector(std::vector<int>{});
  EXPECT_TRUE(b.read_vector<int>().empty());
  EXPECT_TRUE(b.exhausted());
}

TEST(Buffer, StringRoundTrip) {
  Buffer b;
  b.write_string("hello channels");
  b.write_string("");
  EXPECT_EQ(b.read_string(), "hello channels");
  EXPECT_EQ(b.read_string(), "");
}

TEST(Buffer, PeekDoesNotConsume) {
  Buffer b;
  b.write<int>(9);
  EXPECT_EQ(b.peek<int>(), 9);
  EXPECT_EQ(b.read<int>(), 9);
}

TEST(Buffer, RewindRereads) {
  Buffer b;
  b.write<int>(1);
  b.write<int>(2);
  EXPECT_EQ(b.read<int>(), 1);
  b.rewind();
  EXPECT_EQ(b.read<int>(), 1);
  EXPECT_EQ(b.read<int>(), 2);
}

TEST(Buffer, ClearEmpties) {
  Buffer b;
  b.write<int>(1);
  b.clear();
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.exhausted());
}

TEST(Buffer, PatchU32) {
  Buffer b;
  const auto slot = b.reserve_u32();
  b.write<std::uint16_t>(99);
  b.patch_u32(slot, 1234);
  EXPECT_EQ(b.read<std::uint32_t>(), 1234u);
  EXPECT_EQ(b.read<std::uint16_t>(), 99);
}

TEST(Buffer, InterleavedReadWrite) {
  Buffer b;
  b.write<int>(1);
  EXPECT_EQ(b.read<int>(), 1);
  b.write<int>(2);  // append while cursor is at the end of old data
  EXPECT_EQ(b.read<int>(), 2);
}

// --------------------------------------------------------------- Barrier --

TEST(Barrier, SynchronizesPhases) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 50;
  Barrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  WorkerTeam::run(kThreads, [&](int /*rank*/) {
    for (int p = 0; p < kPhases; ++p) {
      phase_counter.fetch_add(1);
      barrier.arrive_and_wait();
      // After the barrier every thread of phase p has incremented.
      EXPECT_GE(phase_counter.load(), kThreads * (p + 1));
      barrier.arrive_and_wait();
    }
  });
  EXPECT_EQ(phase_counter.load(), kThreads * kPhases);
}

TEST(Barrier, CompletionRunsExactlyOncePerPhase) {
  constexpr int kThreads = 3;
  constexpr int kPhases = 20;
  Barrier barrier(kThreads);
  std::atomic<int> completions{0};
  WorkerTeam::run(kThreads, [&](int /*rank*/) {
    for (int p = 0; p < kPhases; ++p) {
      barrier.arrive_and_wait([&] { completions.fetch_add(1); });
    }
  });
  EXPECT_EQ(completions.load(), kPhases);
}

TEST(Barrier, SingleThreadTeamNeverBlocks) {
  Barrier barrier(1);
  int completions = 0;
  barrier.arrive_and_wait([&] { ++completions; });
  barrier.arrive_and_wait();
  EXPECT_EQ(completions, 1);
}

TEST(Barrier, AbortReleasesWaitersWithTransportError) {
  // Ranks 1 and 2 wait for rank 0, which aborts instead of arriving:
  // both must fail with TransportError (whether the abort finds them
  // blocked or not yet arrived), and so must every later arrival.
  constexpr int kThreads = 3;
  Barrier barrier(kThreads);
  std::atomic<int> released{0};
  WorkerTeam::run(kThreads, [&](int rank) {
    if (rank == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      barrier.abort();
      return;
    }
    try {
      barrier.arrive_and_wait();
    } catch (const pregel::runtime::TransportError&) {
      released.fetch_add(1);
    }
  });
  EXPECT_EQ(released.load(), 2);
  EXPECT_THROW(barrier.arrive_and_wait(), pregel::runtime::TransportError);
}

TEST(WorkerTeam, RethrowsTheFirstFailureNotTheAbortItCaused) {
  // Rank 2 fails first; its on_error abort then fails ranks 0 and 1 at
  // the barrier. run() must surface rank 2's error, the root cause.
  constexpr int kThreads = 3;
  Barrier barrier(kThreads);
  try {
    WorkerTeam::run(
        kThreads,
        [&](int rank) {
          if (rank == 2) throw std::runtime_error("rank 2 died");
          barrier.arrive_and_wait();
        },
        [&] { barrier.abort(); });
    ADD_FAILURE() << "no exception";
  } catch (const std::exception& e) {
    EXPECT_STREQ(e.what(), "rank 2 died");
  }
}

// ------------------------------------------------------------ AllReducer --

TEST(AllReducer, SumAcrossRanks) {
  constexpr int kThreads = 4;
  Barrier barrier(kThreads);
  AllReducer<std::uint64_t> red(kThreads, barrier);
  std::vector<std::uint64_t> results(kThreads);
  WorkerTeam::run(kThreads, [&](int rank) {
    results[static_cast<std::size_t>(rank)] =
        red.sum(rank, static_cast<std::uint64_t>(rank + 1));
  });
  for (const auto r : results) EXPECT_EQ(r, 1u + 2 + 3 + 4);
}

TEST(AllReducer, AnyAndAll) {
  constexpr int kThreads = 3;
  Barrier barrier(kThreads);
  AllReducer<std::uint64_t> red(kThreads, barrier);
  std::vector<int> any_result(kThreads), all_result(kThreads);
  WorkerTeam::run(kThreads, [&](int rank) {
    any_result[static_cast<std::size_t>(rank)] = red.any(rank, rank == 2);
    all_result[static_cast<std::size_t>(rank)] = red.all(rank, rank != 2);
  });
  for (int r = 0; r < kThreads; ++r) {
    EXPECT_TRUE(any_result[static_cast<std::size_t>(r)]);
    EXPECT_FALSE(all_result[static_cast<std::size_t>(r)]);
  }
}

TEST(AllReducer, BitmaskOrManyRounds) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  Barrier barrier(kThreads);
  AllReducer<std::uint64_t> red(kThreads, barrier);
  std::atomic<int> failures{0};
  WorkerTeam::run(kThreads, [&](int rank) {
    for (int round = 0; round < kRounds; ++round) {
      const std::uint64_t mine = std::uint64_t{1}
                                 << ((rank + round) % kThreads);
      const std::uint64_t mask = red.reduce(
          rank, mine, [](std::uint64_t a, std::uint64_t b) { return a | b; },
          std::uint64_t{0});
      if (mask != 0xF) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

// --------------------------------------------------------- BufferExchange --

TEST(BufferExchange, PairwiseDelivery) {
  constexpr int kWorkers = 4;
  Barrier barrier(kWorkers);
  BufferExchange ex(kWorkers, barrier);
  std::atomic<int> failures{0};
  WorkerTeam::run(kWorkers, [&](int rank) {
    for (int to = 0; to < kWorkers; ++to) {
      ex.outbox(rank, to).write<int>(rank * 100 + to);
    }
    ex.exchange(rank);
    for (int from = 0; from < kWorkers; ++from) {
      if (ex.inbox(rank, from).read<int>() != from * 100 + rank) {
        failures.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ex.total_bytes(), kWorkers * kWorkers * sizeof(int));
  EXPECT_EQ(ex.total_batches(),
            static_cast<std::uint64_t>(kWorkers * kWorkers));
}

TEST(BufferExchange, OutboxesRecycledAfterTwoRounds) {
  constexpr int kWorkers = 2;
  Barrier barrier(kWorkers);
  BufferExchange ex(kWorkers, barrier);
  std::atomic<int> failures{0};
  WorkerTeam::run(kWorkers, [&](int rank) {
    for (int round = 0; round < 6; ++round) {
      for (int to = 0; to < kWorkers; ++to) {
        auto& out = ex.outbox(rank, to);
        if (out.size() != 0) failures.fetch_add(1);  // must start clean
        out.write<int>(round * 10 + rank);
      }
      ex.exchange(rank);
      for (int from = 0; from < kWorkers; ++from) {
        if (ex.inbox(rank, from).read<int>() != round * 10 + from) {
          failures.fetch_add(1);
        }
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(BufferExchange, EmptyRoundCountsNothing) {
  constexpr int kWorkers = 2;
  Barrier barrier(kWorkers);
  BufferExchange ex(kWorkers, barrier);
  WorkerTeam::run(kWorkers, [&](int rank) { ex.exchange(rank); });
  EXPECT_EQ(ex.total_bytes(), 0u);
  EXPECT_EQ(ex.total_batches(), 0u);
  EXPECT_EQ(ex.rounds(), 1u);
}

// ------------------------------------------------------------ WorkerTeam --

TEST(WorkerTeam, RunsEveryRankOnce) {
  std::vector<std::atomic<int>> hits(8);
  WorkerTeam::run(8, [&](int rank) {
    hits[static_cast<std::size_t>(rank)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerTeam, PropagatesExceptions) {
  EXPECT_THROW(
      WorkerTeam::run(3,
                      [&](int rank) {
                        if (rank == 1) throw std::runtime_error("rank 1 died");
                      }),
      std::runtime_error);
}

TEST(WorkerTeam, RejectsBadWorkerCount) {
  EXPECT_THROW(WorkerTeam::run(0, [](int) {}), std::invalid_argument);
}

// ------------------------------------------ numeric and boolean PGCH knobs --

/// One row of the knob table: set `var` to `value`, then `read` either
/// returns `want` (defaults and clamps applied) or, when `throws`, raises
/// std::invalid_argument naming the variable.
struct KnobCase {
  const char* var;
  const char* value;
  std::function<long long()> read;
  long long want;
  bool throws;
};

TEST(EnvKnobs, StrictNumericParsingTable) {
  namespace rt = pregel::runtime;
  namespace core = pregel::core;
  const std::function<long long()> compute = [] {
    return rt::compute_threads_from_env();
  };
  const std::function<long long()> steal = [] {
    return static_cast<long long>(rt::steal_from_env());
  };
  const std::function<long long()> every = [] {
    return rt::CheckpointConfig::from_env().every;
  };
  const std::function<long long()> resume = [] {
    return rt::CheckpointConfig::from_env().resume_epoch;
  };
  const auto launch = [](auto field) -> std::function<long long()> {
    return [field] { return field(core::LaunchConfig::from_env()); };
  };
  const auto rank = launch([](const core::LaunchConfig& c) { return c.rank; });
  const auto world =
      launch([](const core::LaunchConfig& c) { return c.world_size; });
  const auto port =
      launch([](const core::LaunchConfig& c) { return c.port_base; });
  const auto timeout_ms = launch([](const core::LaunchConfig& c) {
    return static_cast<long long>(c.connect_timeout_s * 1000.0 + 0.5);
  });
  const auto attempts =
      launch([](const core::LaunchConfig& c) { return c.recovery_attempts; });
  const std::function<long long()> io_timeout = [] {
    // A one-rank transport parses its knobs and opens no socket.
    const rt::TcpTransport t(0, 1, rt::TcpEndpoint{});
    return 0LL;
  };

  const KnobCase cases[] = {
      {"PGCH_COMPUTE_THREADS", "3", compute, 3, false},
      {"PGCH_COMPUTE_THREADS", "0", compute, 1, false},
      {"PGCH_COMPUTE_THREADS", "", compute, 1, false},
      {"PGCH_COMPUTE_THREADS", "abc", compute, 0, true},
      {"PGCH_COMPUTE_THREADS", "3x", compute, 0, true},
      {"PGCH_STEAL", "1", steal, 1, false},
      {"PGCH_STEAL", "0", steal, 0, false},
      {"PGCH_STEAL", "", steal, 0, false},
      {"PGCH_STEAL", "true", steal, 0, true},
      {"PGCH_STEAL", "2", steal, 0, true},
      {"PGCH_CHECKPOINT_EVERY", "5", every, 5, false},
      {"PGCH_CHECKPOINT_EVERY", "-2", every, 0, false},
      {"PGCH_CHECKPOINT_EVERY", "x", every, 0, true},
      {"PGCH_RESUME", "7", resume, 7, false},
      {"PGCH_RESUME", "auto", resume, -1, false},
      {"PGCH_RESUME", "0", resume, 0, false},
      {"PGCH_RESUME", "-7", resume, 0, true},
      {"PGCH_RESUME", "latest", resume, 0, true},
      {"PGCH_RANK", "2", rank, 2, false},
      {"PGCH_RANK", "r2", rank, 0, true},
      {"PGCH_WORLD", "4", world, 4, false},
      {"PGCH_WORLD", "4 ", world, 0, true},
      {"PGCH_PORT_BASE", "31000", port, 31000, false},
      {"PGCH_PORT_BASE", "0x10", port, 0, true},
      {"PGCH_CONNECT_TIMEOUT_MS", "2500", timeout_ms, 2500, false},
      {"PGCH_CONNECT_TIMEOUT_MS", "-1", timeout_ms, 30000, false},
      {"PGCH_CONNECT_TIMEOUT_MS", "soon", timeout_ms, 0, true},
      {"PGCH_RECOVERY_ATTEMPTS", "3", attempts, 3, false},
      {"PGCH_RECOVERY_ATTEMPTS", "-1", attempts, 0, false},
      {"PGCH_RECOVERY_ATTEMPTS", "many", attempts, 0, true},
      {"PGCH_RECOVERY_ATTEMPTS", "1e3", attempts, 0, true},
      {"PGCH_RECOVERY_ATTEMPTS", "99999999999", attempts, INT_MAX, false},
      {"PGCH_RECOVERY_ATTEMPTS", "99999999999999999999", attempts, 0, true},
      {"PGCH_IO_TIMEOUT_MS", "500", io_timeout, 0, false},
      {"PGCH_IO_TIMEOUT_MS", "fast", io_timeout, 0, true},
  };
  for (const KnobCase& c : cases) {
    const ScopedEnv env(c.var, c.value);
    const std::string label = std::string(c.var) + "='" + c.value + "'";
    if (!c.throws) {
      EXPECT_EQ(c.read(), c.want) << label;
      continue;
    }
    try {
      (void)c.read();
      ADD_FAILURE() << label << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.var), std::string::npos)
          << label << ": " << e.what();
    }
  }
}

}  // namespace
