// End-to-end fault-tolerance tests (docs/fault_tolerance.md): a real
// 2-rank TCP team under tools/pgch_launch, with deterministic faults
// injected via PGCH_FAULT.
//
// This binary is both the test driver and the per-rank worker: invoked
// with --child it runs a deterministic PageRank as one rank of the team
// through core::launch and writes its slice of the results to a file;
// with --child-collect it runs through algo::run_collect and writes the
// all-gathered global array. The gtest side spawns pgch_launch pointing
// back at this very binary. The parity tests assert
// the strongest property checkpoint/restore offers: a run that crashed,
// respawned and resumed produces byte-for-byte the same per-rank result
// files (superstep count, message counters, vertex ids, values) as a run
// with no fault.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "algorithms/runner.hpp"
#include "core/pregel_channel.hpp"
#include "graph/distributed.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "runtime/tcp_transport.hpp"

using namespace pregel;

namespace {

// ---------------------------------------------------------------------------
// Child mode: one rank of a deterministic 2-rank PageRank.
// ---------------------------------------------------------------------------

struct PRValue {
  double page_rank = 0.0;
};
using VertexT = core::Vertex<PRValue>;

/// Fixed-iteration PageRank (the quickstart worker, shrunk): enough
/// supersteps that a fault at superstep 5 with checkpoints every 2 lands
/// mid-run with committed epochs behind it and work still ahead.
class ChildPageRank : public core::Worker<VertexT> {
 public:
  void compute(VertexT& v) override {
    const double n = static_cast<double>(get_vnum());
    if (step_num() == 1) {
      v.value().page_rank = 1.0 / n;
    } else {
      const double s = agg_.result() / n;
      v.value().page_rank = 0.15 / n + 0.85 * (msg_.get_message() + s);
    }
    if (step_num() < 12) {
      const auto edges = v.edges();
      if (!edges.empty()) {
        const double share =
            v.value().page_rank / static_cast<double>(edges.size());
        for (const auto& e : edges) msg_.send_message(e.dst, share);
      } else {
        agg_.add(v.value().page_rank);
      }
    } else {
      v.vote_to_halt();
    }
  }

 private:
  core::CombinedMessage<VertexT, double> msg_{
      this, core::make_combiner(core::c_sum, 0.0)};
  core::Aggregator<VertexT, double> agg_{
      this, core::make_combiner(core::c_sum, 0.0)};
};

/// The team stats a child writes after its rank and row count: supersteps,
/// message bytes, message batches, frame bytes.
constexpr std::size_t kCounters = 4;

/// `collect_all`: run through algo::run_collect and record every vertex
/// (the all-gathered array); otherwise core::launch and this rank's slice.
int run_child(bool collect_all) {
  const core::LaunchConfig config = core::LaunchConfig::from_env();
  const char* out_prefix = std::getenv("PGCH_TEST_OUT");
  if (out_prefix == nullptr) {
    std::fprintf(stderr, "recovery_test --child: PGCH_TEST_OUT not set\n");
    return 2;
  }

  // Deterministic inputs on every incarnation: fixed generator seed,
  // fixed partition, default single compute thread.
  const graph::CsrGraph g = graph::rmat({.num_vertices = 256,
                                         .num_edges = 2048,
                                         .seed = 7})
                                .finalize();
  const graph::DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), 2));

  std::vector<std::pair<std::uint32_t, double>> rows;
  runtime::RunStats stats;
  try {
    if (collect_all) {
      std::vector<double> ranks;
      stats = algo::run_collect<ChildPageRank>(
          dg, ranks, [](const VertexT& v) { return v.value().page_rank; });
      for (std::uint32_t id = 0; id < ranks.size(); ++id) {
        rows.emplace_back(id, ranks[id]);
      }
    } else {
      stats = core::launch<ChildPageRank>(
          dg, config, /*configure=*/nullptr,
          /*collect=*/[&](const ChildPageRank& w, int) {
            w.for_each_vertex([&](const VertexT& v) {
              rows.emplace_back(v.id(), v.value().page_rank);
            });
          });
    }
  } catch (const runtime::TransportError& e) {
    std::fprintf(stderr, "recovery_test --child rank %d: %s\n", config.rank,
                 e.what());
    // Let an already-dead peer be reaped first so the supervisor
    // propagates the ORIGINAL failure's exit code, not this fallout.
    ::usleep(300'000);
    return 9;
  }

  const std::string path =
      std::string(out_prefix) + "_r" + std::to_string(config.rank) + ".bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "recovery_test --child: cannot write %s\n",
                 path.c_str());
    return 2;
  }
  const auto rank32 = static_cast<std::uint32_t>(config.rank);
  const auto count = static_cast<std::uint32_t>(rows.size());
  const std::uint64_t header[kCounters] = {
      static_cast<std::uint64_t>(stats.supersteps), stats.message_bytes,
      stats.message_batches, stats.frame_bytes};
  std::fwrite(&rank32, sizeof(rank32), 1, f);
  std::fwrite(&count, sizeof(count), 1, f);
  std::fwrite(header, sizeof(header), 1, f);
  for (const auto& [id, pr] : rows) {
    std::fwrite(&id, sizeof(id), 1, f);
    std::fwrite(&pr, sizeof(pr), 1, f);
  }
  std::fclose(f);
  return 0;
}

// ---------------------------------------------------------------------------
// Test side: spawn pgch_launch over this binary and inspect the fallout.
// ---------------------------------------------------------------------------

std::string g_self;  ///< absolute path of this test binary (set in main)

/// Distinct port range per test run and per test within the run, clear
/// of the 29500+ bases the CI smoke runs use.
int next_port_base() {
  static int calls = 0;
  return 21000 + (static_cast<int>(::getpid()) % 997) * 8 + 2 * calls++;
}

struct LaunchResult {
  int exit_code = -1;
  std::string log;
  double seconds = 0.0;
};

/// Run `pgch_launch <flags> -- <this binary> <child>` with `env` prefixed
/// (shell "K=V K=V" form), capturing the combined output and wall time.
LaunchResult run_launcher(const std::string& env, const std::string& flags,
                          const std::string& log_path,
                          const std::string& child = "--child") {
#ifndef PGCH_LAUNCH_BIN
  (void)env;
  (void)flags;
  (void)log_path;
  (void)child;
  return {};
#else
  const std::string cmd = "env " + env + " " + PGCH_LAUNCH_BIN + " " + flags +
                          " -- " + g_self + " " + child + " > " + log_path +
                          " 2>&1";
  const auto start = std::chrono::steady_clock::now();
  const int rc = std::system(cmd.c_str());
  const auto end = std::chrono::steady_clock::now();
  LaunchResult result;
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  std::ifstream log(log_path);
  std::stringstream ss;
  ss << log.rdbuf();
  result.log = ss.str();
  return result;
#endif
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// The stats header of a child's result file (see run_child()).
std::vector<std::uint64_t> counters(const std::string& file) {
  constexpr std::size_t kAt = 2 * sizeof(std::uint32_t);
  constexpr std::size_t kBytes = kCounters * sizeof(std::uint64_t);
  std::vector<std::uint64_t> out(kCounters, 0);
  if (file.size() >= kAt + kBytes) {
    std::memcpy(out.data(), file.data() + kAt, kBytes);
  }
  return out;
}

/// A test's unique file prefix. Every log, result file and checkpoint
/// directory the test's runs leave in the working directory starts with
/// it; they are all removed when the test ends.
class Artifacts {
 public:
  explicit Artifacts(const char* name)
      : id_(std::string("recovery_") + name + "_" +
            std::to_string(::getpid())) {}
  Artifacts(const Artifacts&) = delete;
  Artifacts& operator=(const Artifacts&) = delete;
  ~Artifacts() {
    std::error_code ec;
    std::vector<std::filesystem::path> ours;
    for (const auto& entry : std::filesystem::directory_iterator(".", ec)) {
      const std::string file = entry.path().filename().string();
      if (file.rfind(id_, 0) == 0 &&
          (file.size() == id_.size() || file[id_.size()] == '_' ||
           file[id_.size()] == '.')) {
        ours.push_back(entry.path());
      }
    }
    for (const auto& path : ours) std::filesystem::remove_all(path, ec);
  }

  [[nodiscard]] const std::string& id() const { return id_; }

 private:
  std::string id_;
};

#ifdef PGCH_LAUNCH_BIN
#define REQUIRE_LAUNCHER()
#else
#define REQUIRE_LAUNCHER() \
  GTEST_SKIP() << "pgch_launch not built (PGCH_BUILD_TOOLS=OFF)"
#endif

TEST(Recovery, ExitFaultRespawnsAndMatchesFailureFreeRunBitwise) {
  REQUIRE_LAUNCHER();
  // core::launch and algo::run_collect (whose result all-gather must sit
  // inside the same recovery loop) recover alike.
  const std::pair<const char*, const char*> modes[] = {
      {"--child", "exit"}, {"--child-collect", "exit_collect"}};
  for (const auto& [child, name] : modes) {
    SCOPED_TRACE(child);
    const Artifacts artifacts(name);
    const std::string& id = artifacts.id();

    // Reference: same checkpoint cadence, no fault.
    const LaunchResult ok = run_launcher(
        "PGCH_TEST_OUT=" + id + "_ok",
        "-n 2 --port-base " + std::to_string(next_port_base()) +
            " --checkpoint-dir " + id + "_ok_ckpt --checkpoint-every 2",
        id + "_ok.log", child);
    ASSERT_EQ(ok.exit_code, 0) << ok.log;

    // Fault run: rank 1 hard-exits at the start of superstep 5; one
    // restart allowed. Heartbeats on, to exercise the beacon-skip path in
    // a full run — they must not perturb the results.
    const LaunchResult faulty = run_launcher(
        "PGCH_TEST_OUT=" + id +
            "_ft PGCH_FAULT=rank=1,superstep=5,kind=exit "
            "PGCH_HEARTBEAT_MS=50",
        "-n 2 --port-base " + std::to_string(next_port_base()) +
            " --checkpoint-dir " + id + "_ft_ckpt --checkpoint-every 2 "
            "--max-restarts 1",
        id + "_ft.log", child);
    ASSERT_EQ(faulty.exit_code, 0) << faulty.log;
    EXPECT_NE(faulty.log.find("rank 1 exited with code 43"),
              std::string::npos)
        << faulty.log;
    EXPECT_NE(faulty.log.find("respawning rank 1"), std::string::npos)
        << faulty.log;

    // The recovered run's per-rank result files — superstep count,
    // message bytes, batches and frame bytes, vertex ids and values — must
    // be byte-for-byte the failure-free ones.
    for (int rank = 0; rank < 2; ++rank) {
      const std::string suffix = "_r" + std::to_string(rank) + ".bin";
      const std::string expect = slurp(id + "_ok" + suffix);
      const std::string got = slurp(id + "_ft" + suffix);
      ASSERT_FALSE(expect.empty());
      EXPECT_EQ(counters(got), counters(expect))
          << "rank " << rank << ": supersteps, message bytes, batches, "
          << "frame bytes";
      EXPECT_EQ(got, expect) << "rank " << rank
                             << " diverged after recovery\n"
                             << faulty.log;
    }
  }
}

TEST(Recovery, CorruptNewestCheckpointFallsBackToOlderEpoch) {
  REQUIRE_LAUNCHER();
  const Artifacts artifacts("corrupt");
  const std::string& id = artifacts.id();

  const LaunchResult ok = run_launcher(
      "PGCH_TEST_OUT=" + id + "_ok",
      "-n 2 --port-base " + std::to_string(next_port_base()) +
          " --checkpoint-dir " + id + "_ok_ckpt --checkpoint-every 2",
      id + "_ok.log");
  ASSERT_EQ(ok.exit_code, 0) << ok.log;

  // Rank 1 damages its newest committed checkpoint (epoch 4) before
  // dying: restore must reject it and the team must agree on epoch 2.
  const LaunchResult faulty = run_launcher(
      "PGCH_TEST_OUT=" + id +
          "_ft PGCH_FAULT=rank=1,superstep=5,kind=corrupt",
      "-n 2 --port-base " + std::to_string(next_port_base()) +
          " --checkpoint-dir " + id + "_ft_ckpt --checkpoint-every 2 "
          "--max-restarts 1",
      id + "_ft.log");
  ASSERT_EQ(faulty.exit_code, 0) << faulty.log;

  for (int rank = 0; rank < 2; ++rank) {
    const std::string suffix = "_r" + std::to_string(rank) + ".bin";
    const std::string expect = slurp(id + "_ok" + suffix);
    const std::string got = slurp(id + "_ft" + suffix);
    ASSERT_FALSE(expect.empty());
    EXPECT_EQ(got, expect) << "rank " << rank
                           << " diverged after corrupt-fallback recovery\n"
                           << faulty.log;
  }
}

TEST(Recovery, FailedRankExitCodePropagatesWithoutRestarts) {
  REQUIRE_LAUNCHER();
  const Artifacts artifacts("code");
  const std::string& id = artifacts.id();

  const LaunchResult r = run_launcher(
      "PGCH_TEST_OUT=" + id + " PGCH_FAULT=rank=1,superstep=3,kind=exit",
      "-n 2 --port-base " + std::to_string(next_port_base()),
      id + ".log");
  // FaultSpec::kExitCode: the injected crash's status must surface as
  // the launcher's own exit code, and the log must name the rank.
  EXPECT_EQ(r.exit_code, 43) << r.log;
  EXPECT_NE(r.log.find("rank 1 exited with code 43"), std::string::npos)
      << r.log;
}

TEST(Recovery, HungPeerSurfacesTimeoutOnSurvivorsWithinDeadline) {
  REQUIRE_LAUNCHER();
  const Artifacts artifacts("hang");
  const std::string& id = artifacts.id();

  // Rank 1 wedges (no exit, no progress) at superstep 3. Rank 0's next
  // receive from it must throw within the silence deadline instead of
  // blocking forever, and the whole team must come down nonzero.
  const LaunchResult r = run_launcher(
      "PGCH_TEST_OUT=" + id +
          " PGCH_FAULT=rank=1,superstep=3,kind=hang PGCH_IO_TIMEOUT_MS=1500",
      "-n 2 --port-base " + std::to_string(next_port_base()),
      id + ".log");
  EXPECT_NE(r.exit_code, 0) << r.log;
  EXPECT_NE(r.log.find("no data from rank 1"), std::string::npos) << r.log;
  // Generous bound: 1.5 s deadline plus process startup/teardown — the
  // point is "bounded", not "instant" (a blocked survivor would ride to
  // the ctest timeout instead).
  EXPECT_LT(r.seconds, 60.0) << r.log;
}

TEST(Launcher, MalformedIntegerFlagsExitWithUsageError) {
  REQUIRE_LAUNCHER();
  const Artifacts artifacts("flags");
  // "--checkpoint-every x" must not quietly run with checkpoints off.
  for (const char* flags : {"-n two", "--port-base 29x",
                            "--max-restarts one", "--checkpoint-every x"}) {
    const LaunchResult r =
        run_launcher("PGCH_TEST_OUT=" + artifacts.id(), flags,
                     artifacts.id() + ".log");
    EXPECT_EQ(r.exit_code, 2) << flags << "\n" << r.log;
    EXPECT_NE(r.log.find("must be an integer"), std::string::npos)
        << flags << "\n" << r.log;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string_view(argv[1]) == "--child") {
    return run_child(/*collect_all=*/false);
  }
  if (argc > 1 && std::string_view(argv[1]) == "--child-collect") {
    return run_child(/*collect_all=*/true);
  }
#ifndef _WIN32
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    g_self = buf;
  }
#endif
  if (g_self.empty()) g_self = argv[0];
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
