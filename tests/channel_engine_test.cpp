// Engine-level tests: superstep semantics, voting-to-halt and message
// reactivation, and the behaviour of each channel in isolation, using
// small purpose-built workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "algorithms/pagerank.hpp"
#include "algorithms/pp_simple.hpp"
#include "algorithms/runner.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/sv.hpp"
#include "core/pregel_channel.hpp"
#include "graph/generators.hpp"
#include "pregelplus/pp_worker.hpp"
#include "ref/reference.hpp"
#include "recording_transport.hpp"
#include "runtime/checkpoint.hpp"

namespace {

using namespace pregel;
using namespace pregel::core;

graph::DistributedGraph make_ring(graph::VertexId n, int workers) {
  graph::Graph g(n);
  for (graph::VertexId v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  return graph::DistributedGraph(g, graph::hash_partition(n, workers));
}

// ------------------------------------------------------- basic lifecycle --

struct CounterValue {
  int computes = 0;
};
using CounterVertex = Vertex<CounterValue>;

/// Runs three supersteps then halts; no channels at all.
class ThreeStepWorker : public Worker<CounterVertex> {
 public:
  void compute(CounterVertex& v) override {
    v.value().computes++;
    if (step_num() >= 3) v.vote_to_halt();
  }
};

TEST(Engine, RunsFixedSupersteps) {
  const auto dg = make_ring(16, 4);
  std::vector<int> computes;
  const auto stats = algo::run_collect<ThreeStepWorker>(
      dg, computes, [](const CounterVertex& v) { return v.value().computes; });
  EXPECT_EQ(stats.supersteps, 3);
  for (const int c : computes) EXPECT_EQ(c, 3);
}

TEST(Engine, ConstructionOutsideLaunchThrows) {
  EXPECT_THROW(ThreeStepWorker{}, std::logic_error);
}

TEST(Engine, SingleWorkerTeamWorks) {
  const auto dg = make_ring(5, 1);
  std::vector<int> computes;
  const auto stats = algo::run_collect<ThreeStepWorker>(
      dg, computes, [](const CounterVertex& v) { return v.value().computes; });
  EXPECT_EQ(stats.supersteps, 3);
}

// ------------------------------------------------- halting + reactivation --

struct TokenValue {
  int received = 0;
};
using TokenVertex = Vertex<TokenValue>;

/// Vertex 0 sends a token around a ring; everyone else sleeps until the
/// token arrives. Tests that messages re-activate halted vertices and that
/// the run ends when the token returns.
class TokenRingWorker : public Worker<TokenVertex> {
 public:
  void compute(TokenVertex& v) override {
    if (step_num() == 1) {
      if (v.id() == 0) msg_.send_message(v.edges()[0].dst, 1);
      v.vote_to_halt();
      return;
    }
    for (const int t : msg_.get_iterator()) {
      v.value().received += t;
      if (v.id() != 0) msg_.send_message(v.edges()[0].dst, t);
    }
    v.vote_to_halt();
  }

 private:
  DirectMessage<TokenVertex, int> msg_{this, "token"};
};

TEST(Engine, MessagesReactivateHaltedVertices) {
  constexpr graph::VertexId kN = 12;
  const auto dg = make_ring(kN, 4);
  std::vector<int> received;
  const auto stats = algo::run_collect<TokenRingWorker>(
      dg, received, [](const TokenVertex& v) { return v.value().received; });
  for (graph::VertexId v = 0; v < kN; ++v) {
    EXPECT_EQ(received[v], 1) << "vertex " << v;
  }
  // Token takes one superstep per hop plus the seeding superstep.
  EXPECT_EQ(stats.supersteps, static_cast<int>(kN) + 1);
}

// ------------------------------------------- the "next superstep" bit ----

/// Every vertex computes once and halts in superstep 1; with the default
/// "continue" bit the run ends there.
class HaltAtOnceWorker : public Worker<CounterVertex> {
 public:
  void compute(CounterVertex& v) override {
    v.value().computes++;
    v.vote_to_halt();
  }
};

/// The same program; its "continue" bit alone keeps the team running
/// through superstep 4.
class ContinueWorker : public HaltAtOnceWorker {
 public:
  [[nodiscard]] bool wants_next_superstep() const override {
    return step_num() < 4;
  }
};

/// The same program on the Pregel+ baseline engine.
class ContinuePPWorker : public plus::PPWorker<CounterVertex, int> {
 public:
  void compute(CounterVertex& v, std::span<const int> /*msgs*/) override {
    v.value().computes++;
    v.vote_to_halt();
  }
  [[nodiscard]] bool wants_next_superstep() const override {
    return step_num() < 4;
  }
};

template <typename WorkerT>
void expect_halted_team_runs_to(int supersteps) {
  constexpr graph::VertexId kN = 16;
  const auto dg = make_ring(kN, 4);
  std::vector<int> computes;
  const auto stats = algo::run_collect<WorkerT>(
      dg, computes, [](const CounterVertex& v) { return v.value().computes; });
  EXPECT_EQ(stats.supersteps, supersteps);
  for (const int c : computes) EXPECT_EQ(c, 1);
  std::vector<std::uint64_t> active(static_cast<std::size_t>(supersteps), 0);
  active[0] = kN;  // compute() ran in superstep 1 only
  EXPECT_EQ(stats.active_per_superstep, active);
}

TEST(Engine, NextSuperstepBitRunsSupersteps) {
  expect_halted_team_runs_to<ContinueWorker>(4);
}

TEST(Engine, NextSuperstepBitRunsPregelPlusSupersteps) {
  expect_halted_team_runs_to<ContinuePPWorker>(4);
}

TEST(Engine, DefaultNextSuperstepBitEndsAHaltedTeam) {
  expect_halted_team_runs_to<HaltAtOnceWorker>(1);
}

// ------------------------------------------- collectives per superstep --

TEST(Engine, OneRoundSuperstepCostsOneExchangeAndTwoCollectives) {
  // PageRank's supersteps each run one communication round (message
  // channel plus aggregator): the exchange, the all-reduce that ends the
  // round loop, and the quiescence vote. The run adds one start barrier.
  const auto dg = make_ring(64, 3);
  const auto records = pregel::testing::run_recorded<algo::PageRankCombined>(
      dg, [](algo::PageRankCombined& w) {
        w.iterations = 4;
        w.set_checkpoint(runtime::CheckpointConfig{});
      });
  constexpr std::uint64_t kSupersteps = 5;  // iterations + the halting one
  for (const pregel::testing::RankRecord& r : records) {
    EXPECT_EQ(r.exchanges, kSupersteps);
    EXPECT_EQ(r.collectives, 1 + 2 * kSupersteps);
  }
}

// ------------------------------------- program state in a checkpoint ----

/// Saves two words of program state; restores only one of them when
/// `short_read` is set.
class ProgramStateWorker : public Worker<CounterVertex> {
 public:
  bool short_read = false;

  void compute(CounterVertex& v) override {
    v.value().computes++;
    if (step_num() >= 4) v.vote_to_halt();
  }
  void save_program_state(runtime::Buffer& out) const override {
    out.write<std::uint32_t>(1);
    out.write<std::uint32_t>(2);
  }
  void restore_program_state(runtime::Buffer& in) override {
    (void)in.read<std::uint32_t>();
    if (!short_read) (void)in.read<std::uint32_t>();
  }
};

TEST(Engine, ProgramStateReadOfTheWrongSizeIsRefused) {
  const auto dg = make_ring(16, 2);
  runtime::CheckpointConfig cfg;
  cfg.every = 2;
  cfg.dir = "engine_program_state_" + std::to_string(::getpid());
  std::filesystem::remove_all(cfg.dir);
  const auto computes = [](const CounterVertex& v) {
    return v.value().computes;
  };
  std::vector<int> got;
  algo::run_collect<ProgramStateWorker>(
      dg, got, computes,
      [&](ProgramStateWorker& w) { w.set_checkpoint(cfg); });

  cfg.every = 0;
  cfg.resume = true;  // from epoch 2, the newest checkpoint
  const auto resumed = algo::run_collect<ProgramStateWorker>(
      dg, got, computes,
      [&](ProgramStateWorker& w) { w.set_checkpoint(cfg); });
  EXPECT_EQ(resumed.supersteps, 4);
  for (const int c : got) EXPECT_EQ(c, 4);

  try {
    algo::run_collect<ProgramStateWorker>(
        dg, got, computes, [&](ProgramStateWorker& w) {
          w.set_checkpoint(cfg);
          w.short_read = true;
        });
    ADD_FAILURE() << "a short program-state read was accepted";
  } catch (const runtime::ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("program state consumed a "
                                         "different size"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(cfg.dir);
}

// ------------------------------------------------------ failing rank ------

/// Runs six supersteps; rank 1 alone throws at the start of superstep 3,
/// while its peers head into that superstep's collectives.
class RankOneFailsWorker : public Worker<CounterVertex> {
 public:
  void begin_superstep() override {
    if (rank() == 1 && step_num() == 3) {
      throw std::runtime_error("rank 1 failed at superstep 3");
    }
  }
  void compute(CounterVertex& v) override {
    msg_.send_message(v.edges()[0].dst, 1);
    if (step_num() >= 6) v.vote_to_halt();
  }

 private:
  CombinedMessage<CounterVertex, int> msg_{this, make_combiner(c_sum, 0),
                                           "ping"};
};

TEST(Engine, OneFailingRankFailsTheTeam) {
  // The run happens on a detached thread so a team that hangs fails this
  // test (through the watchdog) instead of blocking the suite.
  auto dg = std::make_shared<const graph::DistributedGraph>(make_ring(64, 4));
  auto outcome = std::make_shared<std::promise<std::string>>();
  std::future<std::string> done = outcome->get_future();
  std::thread([dg, outcome] {
    try {
      std::vector<int> sink;
      algo::run_collect<RankOneFailsWorker>(
          *dg, sink, [](const CounterVertex& v) { return v.value().computes; });
      outcome->set_value("no exception");
    } catch (const std::exception& e) {
      outcome->set_value(e.what());
    }
  }).detach();
  if (done.wait_for(std::chrono::seconds(20)) != std::future_status::ready) {
    std::fprintf(stderr,
                 "Engine.OneFailingRankFailsTheTeam: the team hung after "
                 "rank 1 failed\n");
    std::fflush(stderr);
    std::_Exit(1);
  }
  EXPECT_EQ(done.get(), "rank 1 failed at superstep 3");
}

// ---------------------------------------------------------- Aggregator ----

struct AggValue {
  std::uint64_t seen = 0;
};
using AggVertex = Vertex<AggValue>;

/// Every vertex contributes its id each superstep; next superstep everyone
/// must observe the global sum of ids.
class AggregatorWorker : public Worker<AggVertex> {
 public:
  void compute(AggVertex& v) override {
    if (step_num() > 1) v.value().seen = agg_.result();
    if (step_num() <= 2) {
      agg_.add(v.id());
    } else {
      v.vote_to_halt();
    }
  }

 private:
  Aggregator<AggVertex, std::uint64_t> agg_{
      this, make_combiner(c_sum, std::uint64_t{0}), "sum"};
};

TEST(Engine, AggregatorDeliversGlobalSumNextSuperstep) {
  constexpr graph::VertexId kN = 100;
  const auto dg = make_ring(kN, 4);
  std::vector<std::uint64_t> seen;
  algo::run_collect<AggregatorWorker>(
      dg, seen, [](const AggVertex& v) { return v.value().seen; });
  const std::uint64_t expect = kN * (kN - 1) / 2;
  for (const auto s : seen) EXPECT_EQ(s, expect);
}

// ------------------------------------------------------ CombinedMessage ---

struct CombineValue {
  std::uint64_t sum = 0;
  bool got = false;
};
using CombineVertex = Vertex<CombineValue>;

/// Every vertex sends its id to vertex 0; vertex 0 must observe one
/// combined value equal to the sum of all ids.
class FanInWorker : public Worker<CombineVertex> {
 public:
  void compute(CombineVertex& v) override {
    if (step_num() == 1) {
      msg_.send_message(0, v.id());
    } else {
      v.value().got = msg_.has_message();
      v.value().sum = msg_.get_message();
    }
    v.vote_to_halt();
  }

 private:
  CombinedMessage<CombineVertex, std::uint64_t> msg_{
      this, make_combiner(c_sum, std::uint64_t{0}), "fanin"};
};

TEST(Engine, CombinedMessageFansInWithSum) {
  constexpr graph::VertexId kN = 64;
  const auto dg = make_ring(kN, 4);
  std::vector<std::uint64_t> sums;
  std::vector<std::uint8_t> gots;
  algo::run_collect<FanInWorker>(
      dg, sums, [](const CombineVertex& v) { return v.value().sum; });
  algo::run_collect<FanInWorker>(
      dg, gots,
      [](const CombineVertex& v) { return std::uint8_t{v.value().got}; });
  EXPECT_EQ(sums[0], kN * (kN - 1) / 2);
  EXPECT_TRUE(gots[0]);
  for (graph::VertexId v = 1; v < kN; ++v) {
    EXPECT_FALSE(gots[v]);
    EXPECT_EQ(sums[v], 0u);  // combiner identity when nothing arrived
  }
}

// ------------------------------------------------------- ScatterCombine ---

struct ScatterValue {
  std::uint64_t combined = 0;
  int rounds_received = 0;
};
using ScatterVertex = Vertex<ScatterValue>;

/// Ring where every vertex scatters (id+1) each superstep for 3 steps;
/// each vertex has exactly one in-neighbor, so the combined value must be
/// the predecessor's id+1 every time.
class ScatterRingWorker : public Worker<ScatterVertex> {
 public:
  void compute(ScatterVertex& v) override {
    if (step_num() == 1) {
      for (const auto& e : v.edges()) msg_.add_edge(e.dst);
    } else if (msg_.has_message()) {
      v.value().combined = msg_.get_message();
      v.value().rounds_received++;
    }
    if (step_num() <= 3) {
      msg_.set_message(v.id() + 1);
    } else {
      v.vote_to_halt();
    }
  }

 private:
  ScatterCombine<ScatterVertex, std::uint64_t> msg_{
      this, make_combiner(c_sum, std::uint64_t{0}), "ring"};
};

TEST(Engine, ScatterCombineDeliversAlongStaticEdges) {
  constexpr graph::VertexId kN = 24;
  const auto dg = make_ring(kN, 4);
  std::vector<std::uint64_t> combined;
  std::vector<int> rounds;
  algo::run_collect<ScatterRingWorker>(
      dg, combined,
      [](const ScatterVertex& v) { return v.value().combined; });
  algo::run_collect<ScatterRingWorker>(
      dg, rounds,
      [](const ScatterVertex& v) { return v.value().rounds_received; });
  for (graph::VertexId v = 0; v < kN; ++v) {
    const graph::VertexId pred = (v + kN - 1) % kN;
    EXPECT_EQ(combined[v], pred + 1) << "vertex " << v;
    EXPECT_EQ(rounds[v], 3);
  }
}

/// Fan-in via scatter: all vertices point at vertex 0 (star), vertex 0
/// must see the min of all scattered values; handshake must only be paid
/// once (message bytes shrink after superstep 2).
class ScatterStarWorker : public Worker<ScatterVertex> {
 public:
  void compute(ScatterVertex& v) override {
    if (step_num() == 1) {
      for (const auto& e : v.edges()) msg_.add_edge(e.dst);
    } else if (msg_.has_message()) {
      v.value().combined = msg_.get_message();
    }
    if (step_num() <= 2) {
      msg_.set_message(v.id() + 100);
    } else {
      v.vote_to_halt();
    }
  }

 private:
  ScatterCombine<ScatterVertex, std::uint64_t> msg_{
      this, make_combiner(c_min, ~std::uint64_t{0}), "star"};
};

TEST(Engine, ScatterCombineAppliesCombinerAcrossWorkers) {
  graph::Graph g = graph::star(40);
  const graph::DistributedGraph dg(g,
                                   graph::hash_partition(g.num_vertices(), 4));
  std::vector<std::uint64_t> combined;
  algo::run_collect<ScatterStarWorker>(
      dg, combined,
      [](const ScatterVertex& v) { return v.value().combined; });
  EXPECT_EQ(combined[0], 101u);  // min over ids 1..39 scattered as id+100
}

/// Fold-order contract: a sender folds each destination's in-edge values
/// left in registration order, and the receiver folds the senders'
/// partials left in rank order. a * K + b (mod 2^64) never rounds but is
/// neither commutative nor associative, so any other order shows.
constexpr std::uint64_t kFoldK = 1000003;

std::uint64_t scattered_value(graph::VertexId v) {
  return (std::uint64_t{v} + 1) * 0x9E3779B97F4A7C15ull;
}

struct FoldValue {
  std::uint64_t combined = 0;
  bool got = false;
};
using FoldVertex = Vertex<FoldValue>;

class ScatterFoldOrderWorker : public Worker<FoldVertex> {
 public:
  void compute(FoldVertex& v) override {
    if (step_num() == 1) {
      for (const auto& e : v.edges()) msg_.add_edge(e.dst);
      msg_.set_message(scattered_value(v.id()));
      return;
    }
    v.value().got = msg_.has_message();
    if (v.value().got) v.value().combined = msg_.get_message();
    v.vote_to_halt();
  }

 private:
  ScatterCombine<FoldVertex, std::uint64_t> msg_{
      this,
      make_combiner(
          [](std::uint64_t a, std::uint64_t b) { return a * kFoldK + b; },
          std::uint64_t{0}),
      "fold"};
};

TEST(Engine, ScatterCombineFoldsInRegistrationOrder) {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 12;
  opts.num_edges = 1u << 15;
  opts.seed = 42;
  const graph::Graph g = graph::rmat(opts);
  for (const int workers : {1, 2, 4}) {
    const graph::DistributedGraph dg(
        g, graph::hash_partition(g.num_vertices(), workers));
    // Sequential reference: per destination, each sender rank's left fold
    // over its in-edges in registration order (local vertex order, then
    // adjacency order), then the left fold of those partials by rank.
    const graph::VertexId n = g.num_vertices();
    std::vector<std::uint64_t> want(n, 0);
    std::vector<std::uint8_t> want_got(n, 0);
    std::size_t longest_run = 0;
    for (int r = 0; r < workers; ++r) {
      std::vector<std::uint64_t> partial(n, 0);
      std::vector<std::size_t> run(n, 0);
      for (std::uint32_t lidx = 0; lidx < dg.num_local(r); ++lidx) {
        const graph::VertexId u = dg.global_id(r, lidx);
        for (const graph::Edge e : dg.out(r, lidx)) {
          partial[e.dst] = run[e.dst]++ == 0
                               ? scattered_value(u)
                               : partial[e.dst] * kFoldK + scattered_value(u);
        }
      }
      for (graph::VertexId d = 0; d < n; ++d) {
        if (run[d] == 0) continue;
        longest_run = std::max(longest_run, run[d]);
        want[d] = want_got[d] ? want[d] * kFoldK + partial[d] : partial[d];
        want_got[d] = 1;
      }
    }
    // Runs above 16 edges are where an unstable sort reorders equal keys.
    ASSERT_GT(longest_run, 16u) << "workers=" << workers;
    for (const int threads : {1, 3}) {
      const auto pin = [threads](ScatterFoldOrderWorker& w) {
        w.set_compute_threads(threads);
      };
      std::vector<FoldValue> got;
      algo::run_collect<ScatterFoldOrderWorker>(
          dg, got, [](const FoldVertex& v) { return v.value(); }, pin);
      for (graph::VertexId d = 0; d < n; ++d) {
        ASSERT_EQ(got[d].got, want_got[d] != 0)
            << "workers=" << workers << " threads=" << threads << " vertex "
            << d;
        ASSERT_EQ(got[d].combined, want[d])
            << "workers=" << workers << " threads=" << threads << " vertex "
            << d;
      }
    }
  }
}

/// One rank's round hashes folded into one FNV-1a word (the count rides
/// along), so a whole run's wire bytes pin as one constant per rank.
std::uint64_t digest(const pregel::testing::RankRecord& r) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint64_t round : r.round_hashes) {
    h = (h ^ round) * 1099511628211ull;
  }
  return (h ^ r.round_hashes.size()) * 1099511628211ull;
}

/// Run WorkerT on `dg` at 1 thread, 3 threads and 3 stealing threads:
/// every rank's round digest must be the same in all three modes.
/// Returns the digests, rank by rank, and the 1-thread run's team stats.
template <typename WorkerT>
std::vector<std::uint64_t> mode_digests(const graph::DistributedGraph& dg,
                                        runtime::RunStats* stats = nullptr) {
  std::vector<std::uint64_t> first;
  for (const auto& [threads, steal] :
       {std::pair{1, false}, {3, false}, {3, true}}) {
    const auto records = pregel::testing::run_recorded<WorkerT>(
        dg, [threads, steal](WorkerT& w) {
          w.set_compute_threads(threads);
          if constexpr (requires { w.set_steal(steal); }) w.set_steal(steal);
        });
    std::vector<std::uint64_t> mode;
    for (const auto& r : records) mode.push_back(digest(r));
    if (!first.empty()) {
      EXPECT_EQ(mode, first) << "workers=" << dg.num_workers()
                             << " threads=" << threads
                             << (steal ? " steal" : "");
      continue;
    }
    first = mode;
    if (stats != nullptr) {
      *stats = records[0].stats;
      for (std::size_t r = 1; r < records.size(); ++r) {
        stats->merge_from(records[r].stats);
      }
    }
  }
  return first;
}

/// Every rank's round digests of WorkerT on one fixed R-MAT at 1, 2 and 4
/// ranks, each the same at 1 thread, 3 threads and 3 stealing threads:
/// the concatenation, rank by rank, team size by team size.
template <typename WorkerT>
std::vector<std::uint64_t> scatter_wire_digests(bool symmetric) {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 12;
  opts.num_edges = 1u << 15;
  opts.seed = 42;
  graph::Graph g = graph::rmat(opts);
  if (symmetric) g = g.symmetrized();
  std::vector<std::uint64_t> digests;
  for (const int workers : {1, 2, 4}) {
    const graph::DistributedGraph dg(
        g, graph::hash_partition(g.num_vertices(), workers));
    const auto first = mode_digests<WorkerT>(dg);
    digests.insert(digests.end(), first.begin(), first.end());
  }
  return digests;
}

TEST(Engine, ScatterCombineWireBytesArePinned) {
  // Integer values only, so the constants do not depend on float codegen.
  EXPECT_EQ(scatter_wire_digests<algo::SvBoth>(/*symmetric=*/true),
            (std::vector<std::uint64_t>{
                2876086513638670082ull, 18169727100234104191ull,
                1085163603139433817ull, 18213968422700699087ull,
                1622455004990212566ull, 14606858911215191388ull,
                13975606055007114189ull}));
  EXPECT_EQ(scatter_wire_digests<ScatterFoldOrderWorker>(/*symmetric=*/false),
            (std::vector<std::uint64_t>{
                15012741601447669612ull, 11629686653304394722ull,
                11677735563820175053ull, 8955123827104009833ull,
                12133820815902573143ull, 2403248825290359816ull,
                8065651939293825435ull}));
}

/// Degenerate edge sets for the one-time destination grouping, each run
/// through the scatter-composed S-V (min combiner) and PageRank (float
/// sum) programs against the sequential references.
struct DegenerateCase {
  std::string name;
  graph::Graph g;
  int workers;
  bool undirected = true;  ///< S-V runs on undirected inputs only
};

std::vector<DegenerateCase> degenerate_cases() {
  std::vector<DegenerateCase> cases;
  {  // more workers than vertices: rank 3 owns nothing
    graph::Graph g(3);
    g.add_undirected_edge(0, 1);
    g.add_undirected_edge(1, 2);
    cases.push_back({"more workers than vertices", std::move(g), 4});
  }
  {  // rank 2 (ids = 2 mod 3) owns only isolated vertices: S-V still
     // calls set_message there, with no edge registered
    graph::Graph g(30);
    graph::VertexId prev = 0;
    for (graph::VertexId v = 1; v < 30; ++v) {
      if (v % 3 == 2) continue;
      g.add_undirected_edge(prev, v);
      prev = v;
    }
    cases.push_back({"rank with no edges", std::move(g), 3});
  }
  {  // self-loops and duplicate edges, registered as separate edges
    graph::Graph g(12);
    for (graph::VertexId v = 0; v < 12; ++v) {
      g.add_undirected_edge(v, (v + 1) % 12);
      if (v % 3 == 0) g.add_edge(v, v);
      if (v % 4 == 0) {
        g.add_undirected_edge(v, (v + 5) % 12);
        g.add_undirected_edge(v, (v + 5) % 12);
      }
    }
    cases.push_back({"self-loops and duplicates", std::move(g), 4});
  }
  for (const int workers : {1, 4}) {  // a star: one run per sender
    graph::Graph g(40);
    for (graph::VertexId v = 1; v < 40; ++v) g.add_undirected_edge(v, 0);
    cases.push_back(
        {"star on " + std::to_string(workers), std::move(g), workers});
  }
  // Leaves to hub only, on one worker: the whole edge set is one run.
  cases.push_back({"directed star", graph::star(40), 1, false});
  {  // every edge stays rank-local: ids v and v + 4 share a hash owner
    graph::Graph g(40);
    for (graph::VertexId v = 0; v + 4 < 40; ++v) {
      g.add_undirected_edge(v, v + 4);
    }
    cases.push_back({"all edges rank-local", std::move(g), 4});
  }
  return cases;
}

TEST(Engine, ScatterCombineHandlesDegenerateEdgeSets) {
  for (const DegenerateCase& c : degenerate_cases()) {
    const graph::DistributedGraph dg(
        c.g, graph::hash_partition(c.g.num_vertices(), c.workers));
    if (c.undirected) {
      std::vector<graph::VertexId> cc;
      algo::run_collect<algo::SvBoth>(
          dg, cc, [](const algo::SvVertex& v) { return v.value().d; });
      EXPECT_EQ(cc, ref::connected_components(c.g)) << c.name;
    }

    const auto want_pr = ref::pagerank(c.g, 30);
    std::vector<double> pr;
    algo::run_collect<algo::PageRankScatter>(
        dg, pr, [](const algo::PRVertex& v) { return v.value().rank; });
    ASSERT_EQ(pr.size(), want_pr.size()) << c.name;
    for (graph::VertexId v = 0; v < c.g.num_vertices(); ++v) {
      EXPECT_NEAR(pr[v], want_pr[v], 1e-10) << c.name << " vertex " << v;
    }
  }
}

// ------------------------------------------------------- RequestRespond ---

struct RRValue {
  std::uint64_t secret = 0;
  std::uint64_t fetched = 0;
};
using RRVertex = Vertex<RRValue>;

/// Every vertex requests the "secret" of vertex (id+7)%n; responses must
/// match, including duplicate requests from many workers to one hot
/// destination.
class FetchWorker : public Worker<RRVertex> {
 public:
  graph::VertexId n = 0;

  void compute(RRVertex& v) override {
    if (step_num() == 1) {
      v.value().secret = 1000 + v.id();
      rr_.add_request((v.id() + 7) % n);
    } else {
      v.value().fetched = rr_.get_respond();
    }
    v.vote_to_halt();
  }

 private:
  RequestRespond<RRVertex, std::uint64_t> rr_{
      this, [](const RRVertex& u) { return u.value().secret; }, "fetch"};
};

TEST(Engine, RequestRespondFetchesRemoteAttribute) {
  constexpr graph::VertexId kN = 50;
  const auto dg = make_ring(kN, 4);
  std::vector<std::uint64_t> fetched;
  algo::run_collect<FetchWorker>(
      dg, fetched, [](const RRVertex& v) { return v.value().fetched; },
      [](FetchWorker& w) { w.n = kN; });
  for (graph::VertexId v = 0; v < kN; ++v) {
    EXPECT_EQ(fetched[v], 1000u + (v + 7) % kN);
  }
}

/// All vertices request the same hot vertex (the pointer-jumping skew
/// pattern): each worker must send exactly one request for it.
class HotFetchWorker : public Worker<RRVertex> {
 public:
  void compute(RRVertex& v) override {
    if (step_num() == 1) {
      v.value().secret = 77 + v.id();
      rr_.add_request(0);
    } else {
      v.value().fetched = rr_.get_respond();
    }
    v.vote_to_halt();
  }

 private:
  RequestRespond<RRVertex, std::uint64_t> rr_{
      this, [](const RRVertex& u) { return u.value().secret; }, "hot"};
};

TEST(Engine, RequestRespondMergesDuplicateRequests) {
  constexpr graph::VertexId kN = 100;
  const auto dg = make_ring(kN, 4);
  std::vector<std::uint64_t> fetched;
  const auto stats = algo::run_collect<HotFetchWorker>(
      dg, fetched, [](const RRVertex& v) { return v.value().fetched; });
  for (graph::VertexId v = 0; v < kN; ++v) EXPECT_EQ(fetched[v], 77u);
  // 100 logical requests but only 4 deduplicated request records (one per
  // worker) should cross the exchange: the request payload of the "hot"
  // channel must be far below 100 * 4 bytes.
  const auto it = stats.bytes_by_channel.find("hot");
  ASSERT_NE(it, stats.bytes_by_channel.end());
  EXPECT_LT(it->second, 100 * sizeof(std::uint32_t));
}

// ---------------------------------------------------------- Propagation ---

struct PropValue {
  graph::VertexId label = 0;
};
using PropVertex = Vertex<PropValue>;

/// Min-label over a ring must converge to 0 everywhere within a single
/// superstep's communication phase (multi-round propagation).
class PropRingWorker : public Worker<PropVertex> {
 public:
  void compute(PropVertex& v) override {
    if (step_num() == 1) {
      for (const auto& e : v.edges()) prop_.add_edge(e.dst);
      prop_.set_value(v.id());
      return;
    }
    v.value().label = prop_.get_value();
    v.vote_to_halt();
  }

 private:
  Propagation<PropVertex, graph::VertexId> prop_{
      this, make_combiner(c_min, graph::kInvalidVertex), "minlabel"};
};

TEST(Engine, PropagationConvergesInOneSuperstepPair) {
  constexpr graph::VertexId kN = 64;
  const auto dg = make_ring(kN, 4);
  std::vector<graph::VertexId> labels;
  const auto stats = algo::run_collect<PropRingWorker>(
      dg, labels, [](const PropVertex& v) { return v.value().label; });
  for (const auto l : labels) EXPECT_EQ(l, 0u);
  EXPECT_EQ(stats.supersteps, 2);
  // The fixpoint needed many communication rounds inside superstep 1.
  EXPECT_GT(stats.comm_rounds, 4u);
}

struct PathValue {
  std::uint64_t dist = graph::kInfWeight;
};
using PathVertex = Vertex<PathValue>;

/// Weighted min-propagation over a chain with known weights: distance to
/// vertex i must be the prefix sum, converged within one superstep pair.
class WeightedChainWorker : public Worker<PathVertex> {
 public:
  void compute(PathVertex& v) override {
    if (step_num() == 1) {
      for (const auto& e : v.edges()) prop_.add_edge(e.dst, e.weight);
      if (v.id() == 0) prop_.set_value(0);
      return;
    }
    v.value().dist = prop_.get_value();
    v.vote_to_halt();
  }

 private:
  Propagation<PathVertex, std::uint64_t> prop_{
      this,
      make_combiner(c_min, std::uint64_t{graph::kInfWeight}),
      [](const std::uint64_t& d, graph::Weight w) { return d + w; },
      "wprop"};
};

TEST(Engine, PropagationPrefixSumsOnWeightedChain) {
  constexpr graph::VertexId kN = 64;
  graph::Graph g(kN);
  for (graph::VertexId v = 0; v + 1 < kN; ++v) g.add_edge(v, v + 1, v + 1);
  const graph::DistributedGraph dg(g, graph::hash_partition(kN, 4));
  std::vector<std::uint64_t> dist;
  const auto stats = algo::run_collect<WeightedChainWorker>(
      dg, dist, [](const PathVertex& v) { return v.value().dist; });
  std::uint64_t expect = 0;
  for (graph::VertexId v = 0; v < kN; ++v) {
    EXPECT_EQ(dist[v], expect) << "vertex " << v;
    expect += v + 1;
  }
  EXPECT_EQ(stats.supersteps, 2);
}

TEST(Engine, PropagationUnreachedVerticesKeepIdentity) {
  graph::Graph g(10);
  g.add_edge(0, 1, 5);  // 2..9 unreachable
  const graph::DistributedGraph dg(g, graph::hash_partition(10, 3));
  std::vector<std::uint64_t> dist;
  algo::run_collect<WeightedChainWorker>(
      dg, dist, [](const PathVertex& v) { return v.value().dist; });
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 5u);
  for (graph::VertexId v = 2; v < 10; ++v) {
    EXPECT_EQ(dist[v], static_cast<std::uint64_t>(graph::kInfWeight));
  }
}

/// A weighted Propagation's edge checkpoint records.
struct ForgedLocalEdge {
  std::uint32_t lidx;
  graph::Weight weight;
};
struct ForgedRemoteEdge {
  int owner;
  std::uint32_t lidx;
  graph::Weight weight;
};

/// Feeds a weighted Propagation's restore_state() hand-built checkpoint
/// sections — well-formed bytes that a checksum would pass — whose vertex
/// 0 carries the given edges. Records, per section, the refusal's text
/// ("" when the section was accepted).
class ForgedRestoreWorker : public Worker<PathVertex> {
 public:
  std::vector<std::string> outcomes;

  ForgedRestoreWorker() {
    const std::uint32_t n = num_local();
    const int peer = 1 - rank();  // a 2-rank team
    const std::uint32_t peer_n = dgraph().num_local(peer);
    try_section({{n - 1, 1}}, {{peer, peer_n - 1, 1}});  // in range
    try_section({{n, 1}}, {});
    try_section({}, {{num_workers(), 0, 1}});
    try_section({}, {{-1, 0, 1}});
    try_section({}, {{peer, peer_n, 1}});
  }

  void compute(PathVertex& v) override { v.vote_to_halt(); }

 private:
  void try_section(const std::vector<ForgedLocalEdge>& local,
                   const std::vector<ForgedRemoteEdge>& remote) {
    const std::uint32_t n = num_local();
    runtime::Buffer in;
    in.write_vector(std::vector<std::uint64_t>(n, graph::kInfWeight));
    for (std::uint32_t u = 0; u < n; ++u) {
      in.write_vector(u == 0 ? local : std::vector<ForgedLocalEdge>{});
    }
    for (std::uint32_t u = 0; u < n; ++u) {
      in.write_vector(u == 0 ? remote : std::vector<ForgedRemoteEdge>{});
    }
    try {
      prop_.restore_state(in);
      outcomes.emplace_back();
    } catch (const runtime::ProtocolError& e) {
      outcomes.emplace_back(e.what());
    }
  }

  Propagation<PathVertex, std::uint64_t> prop_{
      this,
      make_combiner(c_min, std::uint64_t{graph::kInfWeight}),
      [](const std::uint64_t& d, graph::Weight w) { return d + w; },
      "wprop"};
};

TEST(Engine, PropagationRestoreRefusesOutOfRangeEdges) {
  const auto dg = make_ring(16, 2);
  std::vector<std::string> outcomes;
  launch<ForgedRestoreWorker>(
      dg, /*configure=*/nullptr, [&](const ForgedRestoreWorker& w, int rank) {
        if (rank == 0) outcomes = w.outcomes;
      });
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_EQ(outcomes[0], "");
  EXPECT_NE(outcomes[1].find("local index 8, outside the 8-vertex slice"),
            std::string::npos)
      << outcomes[1];
  EXPECT_NE(outcomes[2].find("rank 2, outside the 2-rank team"),
            std::string::npos)
      << outcomes[2];
  EXPECT_NE(outcomes[3].find("rank -1"), std::string::npos) << outcomes[3];
  EXPECT_NE(outcomes[4].find("local index 8, outside the 8-vertex slice"),
            std::string::npos)
      << outcomes[4];
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].rfind("wprop restore: ", 0), 0u) << outcomes[i];
  }
}

// ----------------------------------------------- channel byte accounting --

TEST(Engine, PerChannelByteAccountingIsConsistent) {
  const auto dg = make_ring(32, 4);
  std::vector<std::uint64_t> sums;
  const auto stats = algo::run_collect<FanInWorker>(
      dg, sums, [](const CombineVertex& v) { return v.value().sum; });
  std::uint64_t channel_total = 0;
  for (const auto& [name, bytes] : stats.bytes_by_channel) {
    channel_total += bytes;
  }
  // Every byte through the exchange is either some channel's framed
  // payload or a frame header — nothing unaccounted.
  EXPECT_EQ(channel_total + stats.frame_bytes, stats.message_bytes);
  EXPECT_GT(stats.frame_bytes, 0u);
  EXPECT_GT(stats.message_bytes, 0u);
}

// ------------------------------------------------- packed wire records --

/// Every vertex sends a 64-bit value along every out-edge through a
/// DirectMessage for kSendSteps supersteps, then halts: kSendSteps * E
/// records.
struct WideValue {
  std::uint64_t sum = 0;
};
using WideVertex = Vertex<WideValue>;

class WideDirectWorker : public Worker<WideVertex> {
 public:
  static constexpr int kSendSteps = 3;

  void compute(WideVertex& v) override {
    for (const std::uint64_t m : msg_.get_iterator()) v.value().sum += m;
    if (step_num() > kSendSteps) {
      v.vote_to_halt();
      return;
    }
    const std::uint64_t m = (std::uint64_t{v.id()} << 32) |
                            static_cast<std::uint64_t>(step_num());
    for (const auto& e : v.edges()) msg_.send_message(e.dst, m);
  }

 private:
  DirectMessage<WideVertex, std::uint64_t> msg_{this, "wide"};
};

/// SSSP from the R-MAT's widest hub, so the frontier reaches far.
class HubSssp : public algo::Sssp {
 public:
  HubSssp() { source = kHub; }
  static inline VertexId kHub = 0;
};

/// One team size's packed-record volume: `sections` u32 record counts
/// (one per round, sender and receiver) and `records` 12-byte records.
struct PackedVolume {
  int workers;
  std::uint64_t sections;
  std::uint64_t records;
  std::uint64_t registration_bytes = 0;  ///< Pregel+ ghost mode only
};

/// The receivers (distinct destination vertices) of each rank's
/// out-edges, summed over the ranks: the records one superstep of a full
/// publish, or of the Pregel+ combiner, ships.
std::uint64_t unique_receivers(const graph::DistributedGraph& dg) {
  std::uint64_t total = 0;
  for (int r = 0; r < dg.num_workers(); ++r) {
    std::vector<std::uint8_t> seen(dg.num_vertices(), 0);
    for (std::uint32_t lidx = 0; lidx < dg.num_local(r); ++lidx) {
      for (const graph::Edge e : dg.out(r, lidx)) {
        total += seen[e.dst] == 0 ? 1 : 0;
        seen[e.dst] = 1;
      }
    }
  }
  return total;
}

/// Pregel+ ghost mode (threshold 16) PageRank's volume per team size:
/// supersteps 1-30 ship each rank's combined low-degree receivers plus
/// one ghost record per (hub, mirror rank); superstep 1 also registers
/// each (hub, mirror rank) as its id, a u32 count and the mirrored lidxs.
PackedVolume ghost_volume(const graph::DistributedGraph& dg) {
  const int workers = dg.num_workers();
  std::uint64_t per_step = 0;
  std::uint64_t registration_bytes = 0;
  for (int r = 0; r < workers; ++r) {
    std::vector<std::uint8_t> seen(dg.num_vertices(), 0);
    for (std::uint32_t lidx = 0; lidx < dg.num_local(r); ++lidx) {
      const graph::EdgeSpan edges = dg.out(r, lidx);
      if (edges.size() < 16) {
        for (const graph::Edge e : edges) {
          per_step += seen[e.dst] == 0 ? 1 : 0;
          seen[e.dst] = 1;
        }
        continue;
      }
      std::vector<std::uint64_t> mirrored(static_cast<std::size_t>(workers));
      for (const graph::Edge e : edges) {
        ++mirrored[static_cast<std::size_t>(dg.owner(e.dst))];
      }
      for (const std::uint64_t n : mirrored) {
        if (n == 0) continue;
        ++per_step;
        registration_bytes += 4 + 4 + 4 * n;
      }
    }
  }
  const auto w = static_cast<std::uint64_t>(workers);
  return {workers, 31 * w * w, 30 * per_step, registration_bytes};
}

TEST(Engine, PackedWireRecordSizesArePinned) {
  // Every (lidx, value) record is 4 + 8 bytes with 8-byte values: no
  // padding. A Pregel+ round additionally ships, per sender and receiver,
  // the registration and ghost counts and the 40 aggregator bytes.
  constexpr std::uint64_t kCount = 4;
  constexpr std::uint64_t kRecord = 12;
  constexpr std::uint64_t kPregelPlusSection = kCount + 4 + 4 + 40;
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 12;
  opts.num_edges = 1u << 15;
  opts.seed = 42;
  opts.weighted = true;
  opts.max_weight = 100;
  const graph::Graph g = graph::rmat(opts);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.out_degree(v) > g.out_degree(HubSssp::kHub)) HubSssp::kHub = v;
  }
  // One section per round, sender and receiver; every program here runs
  // one round per superstep.
  runtime::RunStats stats;
  const auto check = [&](const char* program, const PackedVolume& want,
                         std::uint64_t bytes) {
    EXPECT_EQ(bytes, kCount * want.sections + kRecord * want.records +
                         want.registration_bytes)
        << program << " workers=" << want.workers;
    const auto w = static_cast<std::uint64_t>(want.workers);
    EXPECT_EQ(want.sections,
              static_cast<std::uint64_t>(stats.supersteps) * w * w)
        << program << " workers=" << want.workers;
  };
  const std::vector<PackedVolume> pagerank = {
      {1, 31, 75690}, {2, 124, 122220}, {4, 496, 189300}};
  const std::vector<PackedVolume> sssp = {
      {1, 12, 10886}, {2, 48, 15988}, {4, 192, 22711}};
  const std::vector<PackedVolume> direct = {
      {1, 4, 97974}, {2, 16, 97974}, {4, 64, 97974}};
  const std::vector<PackedVolume> pp_basic = {
      {1, 31, 75690}, {2, 124, 122220}, {4, 496, 189300}};
  const std::vector<PackedVolume> pp_ghost = {{1, 31, 59250, 98100},
                                              {2, 124, 92370, 101204},
                                              {4, 496, 143190, 107396}};
  for (std::size_t i = 0; i < 3; ++i) {
    const int workers = pagerank[i].workers;
    const graph::DistributedGraph dg(
        g, graph::hash_partition(g.num_vertices(), workers));
    // PageRank publishes every source in supersteps 1-30; superstep 31
    // sends an empty section per rank pair. Pregel+ combines the same
    // messages per receiver, so it ships the same records.
    const std::uint64_t publish_records = 30 * unique_receivers(dg);
    mode_digests<algo::PageRankCombined>(dg, &stats);
    check("PageRankCombined", pagerank[i], stats.bytes_by_channel.at("pr"));
    EXPECT_EQ(pagerank[i].records, publish_records) << workers;
    mode_digests<HubSssp>(dg, &stats);
    check("Sssp", sssp[i], stats.bytes_by_channel.at("dist"));
    mode_digests<WideDirectWorker>(dg, &stats);
    check("DirectMessage", direct[i], stats.bytes_by_channel.at("wide"));
    EXPECT_EQ(direct[i].records, WideDirectWorker::kSendSteps * g.num_edges())
        << workers;
    mode_digests<algo::PPPageRank>(dg, &stats);
    check("PPPageRank", pp_basic[i],
          stats.message_bytes -
              (kPregelPlusSection - kCount) * pp_basic[i].sections);
    EXPECT_EQ(pp_basic[i].records, publish_records) << workers;
    mode_digests<algo::PPPageRankGhost>(dg, &stats);
    check("PPPageRankGhost", pp_ghost[i],
          stats.message_bytes -
              (kPregelPlusSection - kCount) * pp_ghost[i].sections);
    const PackedVolume ghost = ghost_volume(dg);
    EXPECT_EQ(pp_ghost[i].sections, ghost.sections) << workers;
    EXPECT_EQ(pp_ghost[i].records, ghost.records) << workers;
    EXPECT_EQ(pp_ghost[i].registration_bytes, ghost.registration_bytes)
        << workers;
  }
}

}  // namespace
