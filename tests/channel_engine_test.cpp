// Engine-level tests: superstep semantics, voting-to-halt and message
// reactivation, and the behaviour of each channel in isolation, using
// small purpose-built workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/runner.hpp"
#include "algorithms/sv.hpp"
#include "core/pregel_channel.hpp"
#include "graph/generators.hpp"
#include "ref/reference.hpp"

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

TEST(Engine, ScatterCombineRefusesEdgeCountsPast32Bits) {
  const std::size_t limit = std::numeric_limits<std::uint32_t>::max();
  EXPECT_NO_THROW(detail::check_scatter_edge_count(limit, "nbr"));
  try {
    detail::check_scatter_edge_count(limit + 1, "nbr");
    FAIL() << "2^32 edges accepted";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("nbr"), std::string::npos)
        << e.what();
  }
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

}  // namespace
