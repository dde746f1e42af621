// Tests for direction-optimizing compute (DESIGN.md section 9): the pull
// protocol of combiner channels must be invisible in every observable
// result — vertex values (bitwise, floats included), superstep counts and
// frontier traces — across {push, pull, adaptive} x thread counts x both
// transports, while shipping ZERO channel payload bytes for rank-local
// edges on pull supersteps. The adaptive heuristic must switch
// push -> pull -> push on a frontier that crosses the density thresholds,
// identically on every rank.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/runner.hpp"
#include "algorithms/sssp.hpp"
#include "core/pregel_channel.hpp"
#include "graph/generators.hpp"
#include "runtime/tcp_transport.hpp"
#include "runtime/team.hpp"
#include "tcp_mesh.hpp"

namespace {

using namespace pregel;
using namespace pregel::core;
using pregel::runtime::RunStats;
using pregel::runtime::TcpEndpoint;
using pregel::runtime::TcpTransport;
using pregel::runtime::WorkerTeam;

/// One engine configuration of the direction parity matrix.
struct Mode {
  DirectionMode direction;
  int threads;
};

constexpr Mode kModes[] = {
    {DirectionMode::kPush, 1},  // the seed path (baseline)
    {DirectionMode::kPush, 3},
    {DirectionMode::kPull, 1},
    {DirectionMode::kPull, 3},
    {DirectionMode::kAdaptive, 1},
    {DirectionMode::kAdaptive, 3},
};

std::string mode_name(const Mode& m) {
  const char* dir = m.direction == DirectionMode::kPush     ? "push"
                    : m.direction == DirectionMode::kPull   ? "pull"
                                                            : "adaptive";
  return std::string(dir) + " threads=" + std::to_string(m.threads);
}

/// Pin every knob so the matrix is deterministic regardless of the PGCH_*
/// variables the CI legs set.
template <typename WorkerT>
std::function<void(WorkerT&)> pin(const Mode& m,
                                  std::function<void(WorkerT&)> extra = {}) {
  return [m, extra](WorkerT& w) {
    w.set_direction_mode(m.direction);
    w.set_compute_threads(m.threads);
    if (extra) extra(w);
  };
}

/// Directions move different bytes by design, so — unlike the parallel-comm
/// parity matrix — only the collective observables must match: results,
/// superstep/round counts, frontier traces.
void expect_identical_run_shape(const RunStats& got, const RunStats& want,
                                const std::string& label) {
  EXPECT_EQ(got.supersteps, want.supersteps) << label;
  EXPECT_EQ(got.comm_rounds, want.comm_rounds) << label;
  EXPECT_EQ(got.active_per_superstep, want.active_per_superstep) << label;
}

/// Run WorkerT across the direction matrix and require bitwise-identical
/// results against the push sequential baseline.
template <typename WorkerT, typename OutT, typename Extract>
void run_matrix(const graph::DistributedGraph& dg, Extract extract,
                std::function<void(WorkerT&)> extra = {}) {
  std::vector<OutT> baseline;
  const RunStats want = algo::run_collect<WorkerT>(
      dg, baseline, extract, pin<WorkerT>(kModes[0], extra));
  for (std::size_t i = 1; i < std::size(kModes); ++i) {
    std::vector<OutT> got;
    const RunStats stats = algo::run_collect<WorkerT>(
        dg, got, extract, pin<WorkerT>(kModes[i], extra));
    EXPECT_EQ(got, baseline) << mode_name(kModes[i]);
    expect_identical_run_shape(stats, want, mode_name(kModes[i]));
  }
}

graph::DistributedGraph rmat_dg(int workers, bool symmetric = false) {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 12;
  opts.num_edges = 1u << 15;
  opts.seed = 42;
  graph::Graph g = graph::rmat(opts);
  if (symmetric) g = g.symmetrized();
  return graph::DistributedGraph(
      g, graph::hash_partition(g.num_vertices(), workers));
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// --------------------------------------------------------- parity matrix --

TEST(Direction, PageRankFloatSumParityMatrix) {
  // Double-sum combiner: the gather must replay push's nested per-rank
  // fold order or the float bits drift.
  const auto dg = rmat_dg(4);
  run_matrix<algo::PageRankCombined, std::uint64_t>(
      dg, [](const algo::PRVertex& v) { return bits(v.value().rank); },
      [](algo::PageRankCombined& w) { w.iterations = 6; });
}

TEST(Direction, SsspExactMinParityMatrix) {
  // Weighted min combiner: exercises f(dist, w) = dist + w through the
  // handshake-shipped edge weights, and a frontier that actually moves.
  const auto dg = graph::DistributedGraph(
      graph::grid_road(48, 48, 600, 7), graph::hash_partition(48 * 48, 4));
  run_matrix<algo::Sssp, std::uint64_t>(
      dg, [](const algo::SsspVertex& v) { return v.value().dist; },
      [](algo::Sssp& w) { w.source = 0; });
}

// ------------------------------------------------------- byte accounting --

TEST(Direction, PullShipsZeroChannelPayloadOnSingleRank) {
  // One rank: every edge is rank-local, so pull supersteps must put ZERO
  // payload bytes on the "pr" channel lane — the gather reads published
  // values directly. Push ships a wire pair per unique destination.
  const auto dg = rmat_dg(1);
  const auto extract = [](const algo::PRVertex& v) {
    return bits(v.value().rank);
  };
  const auto tune = [](algo::PageRankCombined& w) { w.iterations = 6; };

  std::vector<std::uint64_t> push_bits;
  const RunStats push = algo::run_collect<algo::PageRankCombined>(
      dg, push_bits, extract,
      pin<algo::PageRankCombined>({DirectionMode::kPush, 1}, tune));
  std::vector<std::uint64_t> pull_bits;
  const RunStats pull = algo::run_collect<algo::PageRankCombined>(
      dg, pull_bits, extract,
      pin<algo::PageRankCombined>({DirectionMode::kPull, 1}, tune));

  EXPECT_EQ(pull_bits, push_bits);
  EXPECT_GT(push.bytes_by_channel.at("pr"), 0u);
  EXPECT_EQ(pull.bytes_by_channel.at("pr"), 0u);
  for (const std::uint8_t d : pull.direction_per_superstep) {
    EXPECT_EQ(d, 1u);  // forced pull every superstep
  }
}

TEST(Direction, PullCutsChannelBytesAcrossRanks) {
  // Two ranks, dense all-superstep frontier (PageRank): pull drops the
  // rank-local wire pairs entirely and replaces per-superstep remote
  // wires with boundary published values; the one-time structure
  // handshake must amortize within the run.
  const auto dg = rmat_dg(2);
  const auto tune = [](algo::PageRankCombined& w) { w.iterations = 10; };
  std::vector<std::uint64_t> push_bits, pull_bits;
  const auto extract = [](const algo::PRVertex& v) {
    return bits(v.value().rank);
  };
  const RunStats push = algo::run_collect<algo::PageRankCombined>(
      dg, push_bits, extract,
      pin<algo::PageRankCombined>({DirectionMode::kPush, 1}, tune));
  const RunStats pull = algo::run_collect<algo::PageRankCombined>(
      dg, pull_bits, extract,
      pin<algo::PageRankCombined>({DirectionMode::kPull, 1}, tune));

  EXPECT_EQ(pull_bits, push_bits);
  EXPECT_LT(pull.bytes_by_channel.at("pr"), push.bytes_by_channel.at("pr"));

  // Adaptive on an always-dense frontier is pull from superstep 1.
  std::vector<std::uint64_t> adaptive_bits;
  const RunStats adaptive = algo::run_collect<algo::PageRankCombined>(
      dg, adaptive_bits, extract,
      pin<algo::PageRankCombined>({DirectionMode::kAdaptive, 1}, tune));
  EXPECT_EQ(adaptive_bits, push_bits);
  EXPECT_EQ(adaptive.bytes_by_channel.at("pr"),
            pull.bytes_by_channel.at("pr"));
  ASSERT_FALSE(adaptive.direction_per_superstep.empty());
  for (const std::uint8_t d : adaptive.direction_per_superstep) {
    EXPECT_EQ(d, 1u);
  }
}

// -------------------------------------------------- adaptive switching --

/// Layered DAG tuned to cross the density thresholds both ways under
/// SSSP: superstep 1 is all-active (dense -> pull), the source's tiny
/// fan-out makes superstep 2 sparse (push), layer 2 holds ~98% of the
/// vertices (pull again), and the last layer is tiny (push).
graph::DistributedGraph layered_dg(int workers) {
  constexpr graph::VertexId kL2 = 700;
  constexpr graph::VertexId kV = 6 + kL2 + 10;  // s + L1(5) + L2 + L3(10)
  graph::Graph g(kV);
  for (graph::VertexId t = 1; t <= 5; ++t) g.add_edge(0, t);
  graph::VertexId next = 6;
  for (graph::VertexId u = 1; u <= 5; ++u) {
    for (graph::VertexId k = 0; k < kL2 / 5; ++k) g.add_edge(u, next++);
  }
  for (graph::VertexId u = 6; u < 6 + kL2; ++u) {
    g.add_edge(u, 6 + kL2 + (u % 10));
  }
  return graph::DistributedGraph(g, graph::hash_partition(kV, workers));
}

TEST(Direction, AdaptiveSwitchesPushPullPush) {
  const auto dg = layered_dg(2);
  const auto extract = [](const algo::SsspVertex& v) {
    return v.value().dist;
  };
  std::vector<std::uint64_t> want;
  algo::run_collect<algo::Sssp>(
      dg, want, extract,
      pin<algo::Sssp>({DirectionMode::kPush, 1},
                      [](algo::Sssp& w) { w.source = 0; }));

  std::vector<std::uint64_t> got;
  const RunStats stats = algo::run_collect<algo::Sssp>(
      dg, got, extract,
      pin<algo::Sssp>({DirectionMode::kAdaptive, 1},
                      [](algo::Sssp& w) { w.source = 0; }));

  EXPECT_EQ(got, want);
  // pull (all V active), push (frontier 5), pull (frontier 700),
  // push (frontier 10) — the push -> pull -> push switch in the middle.
  EXPECT_EQ(stats.direction_per_superstep,
            (std::vector<std::uint8_t>{1, 0, 1, 0}));
}

TEST(Direction, AdaptiveHysteresisTable) {
  constexpr std::uint64_t kV = 1000;
  // Entering pull needs the frontier at V/4; prior direction irrelevant
  // above that.
  EXPECT_EQ(adaptive_direction(Direction::kPush, 250, kV), Direction::kPull);
  EXPECT_EQ(adaptive_direction(Direction::kPush, 249, kV), Direction::kPush);
  // Leaving pull needs it BELOW V/8 — the hysteresis band keeps a
  // frontier oscillating around V/4 from flapping.
  EXPECT_EQ(adaptive_direction(Direction::kPull, 249, kV), Direction::kPull);
  EXPECT_EQ(adaptive_direction(Direction::kPull, 125, kV), Direction::kPull);
  EXPECT_EQ(adaptive_direction(Direction::kPull, 124, kV), Direction::kPush);
  // Boundary degenerate cases.
  EXPECT_EQ(adaptive_direction(Direction::kPush, 0, kV), Direction::kPush);
  EXPECT_EQ(adaptive_direction(Direction::kPull, 0, kV), Direction::kPush);
  EXPECT_EQ(adaptive_direction(Direction::kPush, kV, kV), Direction::kPull);
}

TEST(Direction, ModeFromEnvParsesAndRejects) {
  unsetenv("PGCH_DIRECTION");
  EXPECT_EQ(direction_mode_from_env(), DirectionMode::kPush);
  setenv("PGCH_DIRECTION", "push", 1);
  EXPECT_EQ(direction_mode_from_env(), DirectionMode::kPush);
  setenv("PGCH_DIRECTION", "pull", 1);
  EXPECT_EQ(direction_mode_from_env(), DirectionMode::kPull);
  setenv("PGCH_DIRECTION", "adaptive", 1);
  EXPECT_EQ(direction_mode_from_env(), DirectionMode::kAdaptive);
  setenv("PGCH_DIRECTION", "sideways", 1);
  EXPECT_THROW(direction_mode_from_env(), std::invalid_argument);
  unsetenv("PGCH_DIRECTION");
}

// -------------------------------------------------------- TCP transport --

using pregel::testing::make_mesh;  // tests/tcp_mesh.hpp (EADDRINUSE retry)

template <typename WorkerT, typename OutT, typename Extract>
RunStats run_tcp(const graph::DistributedGraph& dg, int world,
                 std::vector<OutT>& out, Extract extract,
                 const std::function<void(WorkerT&)>& configure) {
  out.assign(dg.num_vertices(), OutT{});
  auto mesh = make_mesh(world);
  std::vector<RunStats> merged(static_cast<std::size_t>(world));
  WorkerTeam::run(world, [&](int rank) {
    merged[static_cast<std::size_t>(rank)] =
        core::launch_distributed<WorkerT>(
            dg, *mesh[static_cast<std::size_t>(rank)], rank, configure,
            [&](WorkerT& w, int /*r*/) {
              w.for_each_vertex(
                  [&](const auto& v) { out[v.id()] = extract(v); });
            });
  });
  return merged[0];
}

TEST(Direction, TcpParityAcrossDirections) {
  // The handshake is what makes pull work over TCP at all: a localized
  // rank has no knowledge of its remote in-edges until peers ship theirs.
  const auto dg = rmat_dg(2);
  const auto extract = [](const algo::PRVertex& v) {
    return bits(v.value().rank);
  };
  const auto tune = [](algo::PageRankCombined& w) { w.iterations = 6; };

  std::vector<std::uint64_t> expect;
  const RunStats inproc = algo::run_collect<algo::PageRankCombined>(
      dg, expect, extract,
      pin<algo::PageRankCombined>({DirectionMode::kPush, 1}, tune));

  for (const Mode m : {Mode{DirectionMode::kPull, 1},
                       Mode{DirectionMode::kPull, 3},
                       Mode{DirectionMode::kAdaptive, 1},
                       Mode{DirectionMode::kAdaptive, 3}}) {
    std::vector<std::uint64_t> got;
    const RunStats tcp = run_tcp<algo::PageRankCombined>(
        dg, 2, got, extract, pin<algo::PageRankCombined>(m, tune));
    EXPECT_EQ(got, expect) << mode_name(m);
    expect_identical_run_shape(tcp, inproc, mode_name(m));
  }
}

TEST(Direction, TcpAdaptiveSwitchMatchesInProcess) {
  const auto dg = layered_dg(2);
  const auto extract = [](const algo::SsspVertex& v) {
    return v.value().dist;
  };
  const auto tune = [](algo::Sssp& w) { w.source = 0; };

  std::vector<std::uint64_t> expect;
  const RunStats inproc = algo::run_collect<algo::Sssp>(
      dg, expect, extract,
      pin<algo::Sssp>({DirectionMode::kAdaptive, 1}, tune));

  std::vector<std::uint64_t> got;
  const RunStats tcp = run_tcp<algo::Sssp>(
      dg, 2, got, extract,
      pin<algo::Sssp>({DirectionMode::kAdaptive, 1}, tune));

  EXPECT_EQ(got, expect);
  EXPECT_EQ(tcp.direction_per_superstep, inproc.direction_per_superstep);
  EXPECT_EQ(tcp.direction_per_superstep,
            (std::vector<std::uint8_t>{1, 0, 1, 0}));
}

// ------------------------------------------------------------ guard rails --

struct GuardValue {
  std::uint64_t x = 0;
};
using GuardVertex = Vertex<GuardValue>;

/// Calls the per-edge API during a forced-pull run: must throw rather
/// than silently dropping the messages.
class SendDuringPullWorker : public Worker<GuardVertex> {
 public:
  void compute(GuardVertex& v) override {
    for (const auto& e : v.edges()) msg_.send_message(e.dst, 1);
    v.vote_to_halt();
  }

 private:
  CombinedMessage<GuardVertex, std::uint64_t> msg_{
      this, make_combiner(c_sum, std::uint64_t{0}),
      [](const std::uint64_t& x, graph::Weight) { return x; }, "guard"};
};

/// Calls publish() on a channel constructed without an edge transform.
class PublishWithoutEdgeFnWorker : public Worker<GuardVertex> {
 public:
  void compute(GuardVertex& v) override {
    msg_.publish(1);
    v.vote_to_halt();
  }

 private:
  CombinedMessage<GuardVertex, std::uint64_t> msg_{
      this, make_combiner(c_sum, std::uint64_t{0}), "guard"};
};

TEST(Direction, SendMessageDuringPullThrows) {
  // Single rank so the throwing worker cannot strand peers at a barrier.
  const auto dg = rmat_dg(1);
  EXPECT_THROW(
      algo::run_only<SendDuringPullWorker>(
          dg,
          [](SendDuringPullWorker& w) {
            w.set_direction_mode(DirectionMode::kPull);
          }),
      std::logic_error);
}

TEST(Direction, PublishRequiresPullCapableConstructor) {
  const auto dg = rmat_dg(1);
  EXPECT_THROW(algo::run_only<PublishWithoutEdgeFnWorker>(dg),
               std::logic_error);
}

// --------------------------------------------------------- stats plumbing --

TEST(Direction, MergeFromAdoptsAndAssertsDirectionAgreement) {
  RunStats a, b;
  b.direction_per_superstep = {1, 0, 1};
  a.merge_from(b);  // empty adopts
  EXPECT_EQ(a.direction_per_superstep, b.direction_per_superstep);
  a.merge_from(b);  // equal sequences pass
  EXPECT_EQ(a.direction_per_superstep, b.direction_per_superstep);
  RunStats c;
  c.direction_per_superstep = {1, 1, 1};
  EXPECT_THROW(a.merge_from(c), std::logic_error);
}

TEST(Direction, DetailedPrintsRunLengthDirections) {
  RunStats s;
  s.direction_per_superstep = {0, 0, 1, 1, 1, 0};
  s.active_per_superstep = {10, 12, 900, 800, 700, 5};
  s.active_vertex_total = 2427;
  const std::string d = s.detailed();
  EXPECT_NE(d.find("pushx2(active 10..12)"), std::string::npos) << d;
  EXPECT_NE(d.find("pullx3(active 700..900)"), std::string::npos) << d;
  EXPECT_NE(d.find("pushx1(active 5)"), std::string::npos) << d;
}

}  // namespace
