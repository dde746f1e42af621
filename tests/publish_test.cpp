// Tests for CombinedMessage::publish() (DESIGN.md section 9): one value
// per vertex, expanded at serialize time over the gather plan (every
// source published) or the out-edge index (a frontier published), must
// be invisible in every observable result — vertex values (bitwise,
// floats included), the bytes of every exchange round, bytes per channel,
// superstep counts and frontier traces — against the hand-written
// per-edge send_message() loop it stands for, at every thread count and
// schedule. Misuse (two publishes for one vertex, publish mixed with
// send_message, publish without an edge transform) throws.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/runner.hpp"
#include "algorithms/sssp.hpp"
#include "core/pregel_channel.hpp"
#include "graph/generators.hpp"
#include "recording_transport.hpp"

namespace {

using namespace pregel;
using namespace pregel::core;
using pregel::runtime::RunStats;

/// One engine configuration of the parity matrix.
struct Mode {
  int threads;
  bool steal = false;
};

constexpr Mode kModes[] = {
    {1},  // sequential (baseline)
    {3},
    {3, true},
};

std::string mode_name(const Mode& m) {
  return "threads=" + std::to_string(m.threads) + (m.steal ? " steal" : "");
}

/// Pin every knob so the matrix is deterministic regardless of the PGCH_*
/// variables the CI legs set.
template <typename WorkerT>
std::function<void(WorkerT&)> pin(const Mode& m,
                                  std::function<void(WorkerT&)> extra = {}) {
  return [m, extra](WorkerT& w) {
    w.set_compute_threads(m.threads);
    w.set_steal(m.steal);
    if (extra) extra(w);
  };
}

/// Every observable of a run that must not depend on the thread count,
/// the schedule, or publish() vs the per-edge loop: bytes per channel,
/// superstep/round counts, frontier traces.
void expect_identical_run_shape(const RunStats& got, const RunStats& want,
                                const std::string& label) {
  EXPECT_EQ(got.bytes_by_channel, want.bytes_by_channel) << label;
  EXPECT_EQ(got.supersteps, want.supersteps) << label;
  EXPECT_EQ(got.comm_rounds, want.comm_rounds) << label;
  EXPECT_EQ(got.active_per_superstep, want.active_per_superstep) << label;
}

/// Run WorkerT across the mode matrix and require bitwise-identical
/// results against the sequential baseline. SendT is WorkerT with
/// publish() written out as the per-edge send_message() loop it stands
/// for, on a channel of the same name built without an edge transform:
/// on every mode it must match WorkerT's results bitwise and its bytes
/// per channel exactly.
template <typename WorkerT, typename OutT, typename SendT, typename Extract,
          typename Configure>
void run_matrix(const graph::DistributedGraph& dg, Extract extract,
                Configure configure) {
  std::vector<OutT> baseline;
  const RunStats want = algo::run_collect<WorkerT>(
      dg, baseline, extract, pin<WorkerT>(kModes[0], configure));
  for (const Mode& mode : kModes) {
    std::vector<OutT> got;
    const RunStats stats = algo::run_collect<WorkerT>(
        dg, got, extract, pin<WorkerT>(mode, configure));
    EXPECT_EQ(got, baseline) << mode_name(mode);
    expect_identical_run_shape(stats, want, mode_name(mode));
    const std::string label = "per-edge sends, " + mode_name(mode);
    std::vector<OutT> sent;
    const RunStats send_stats = algo::run_collect<SendT>(
        dg, sent, extract, pin<SendT>(mode, configure));
    EXPECT_EQ(sent, baseline) << label;
    expect_identical_run_shape(send_stats, stats, label);
  }
}

graph::DistributedGraph rmat_dg(int workers) {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 12;
  opts.num_edges = 1u << 15;
  opts.seed = 42;
  graph::Graph g = graph::rmat(opts);
  return graph::DistributedGraph(
      g, graph::hash_partition(g.num_vertices(), workers));
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// algo::PageRankCombined with publish() written out as the per-edge
/// send_message() loop on a channel without an edge transform.
class PageRankSend : public Worker<algo::PRVertex> {
 public:
  int iterations = 30;

  void compute(algo::PRVertex& v) override {
    const double n = static_cast<double>(get_vnum());
    if (step_num() == 1) {
      v.value().rank = 1.0 / n;
    } else {
      const double s = agg_.result() / n;
      v.value().rank = 0.15 / n + 0.85 * (msg_.get_message() + s);
    }
    if (step_num() <= iterations) {
      const auto edges = v.edges();
      if (!edges.empty()) {
        const double share =
            v.value().rank / static_cast<double>(edges.size());
        for (const auto& e : edges) msg_.send_message(e.dst, share);
      } else {
        agg_.add(v.value().rank);
      }
    } else {
      v.vote_to_halt();
    }
  }

 private:
  CombinedMessage<algo::PRVertex, double> msg_{
      this, make_combiner(c_sum, 0.0), "pr"};
  Aggregator<algo::PRVertex, double> agg_{this, make_combiner(c_sum, 0.0),
                                          "sink"};
};

/// algo::Sssp with publish() written out as the per-edge send_message()
/// loop on a channel without an edge transform.
class SsspSend : public Worker<algo::SsspVertex> {
 public:
  VertexId source = 0;

  void compute(algo::SsspVertex& v) override {
    bool improved = false;
    if (step_num() == 1) {
      v.value().dist = (v.id() == source) ? 0 : graph::kInfWeight;
      improved = (v.id() == source);
    } else {
      const std::uint64_t m = msg_.get_message();
      if (m < v.value().dist) {
        v.value().dist = m;
        improved = true;
      }
    }
    if (improved) {
      for (const auto& e : v.edges()) {
        msg_.send_message(e.dst, v.value().dist + e.weight);
      }
    }
    v.vote_to_halt();
  }

 private:
  CombinedMessage<algo::SsspVertex, std::uint64_t> msg_{
      this, make_combiner(c_min, std::uint64_t{graph::kInfWeight}), "dist"};
};

// --------------------------------------------------------- parity matrix --

TEST(Publish, PageRankFloatSumParityMatrix) {
  // Double-sum combiner: the serialize-time expansion of publish()
  // must replay the per-edge loop's fold order or the float bits drift.
  const auto dg = rmat_dg(4);
  run_matrix<algo::PageRankCombined, std::uint64_t, PageRankSend>(
      dg, [](const algo::PRVertex& v) { return bits(v.value().rank); },
      [](auto& w) { w.iterations = 6; });
}

TEST(Publish, SsspExactMinParityMatrix) {
  // Weighted min combiner: exercises f(dist, w) = dist + w through the
  // stored edge weights of the out-edge index, and a frontier that
  // actually moves.
  const auto dg = graph::DistributedGraph(
      graph::grid_road(48, 48, 600, 7), graph::hash_partition(48 * 48, 4));
  run_matrix<algo::Sssp, std::uint64_t, SsspSend>(
      dg, [](const algo::SsspVertex& v) { return v.value().dist; },
      [](auto& w) { w.source = 0; });
}

TEST(Publish, EverySuperstepOpensAFreshEpoch) {
  // PageRank publishes every vertex in every superstep, so a publish
  // epoch that failed to advance would trip the double-publish guard from
  // superstep 2 on. One rank, so that throw fails here instead of
  // stranding peers at a barrier.
  const auto dg = rmat_dg(1);
  for (const Mode& mode : kModes) {
    EXPECT_NO_THROW(algo::run_only<algo::PageRankCombined>(
        dg, pin<algo::PageRankCombined>(
                mode, [](algo::PageRankCombined& w) { w.iterations = 3; })))
        << mode_name(mode);
  }
}

// ------------------------------------------------------ wire-byte parity --

/// A graph with every shape the two publish paths must agree on, over 3
/// ranks (owner = id mod 3) with more than kParallelCommMinItems sources
/// per rank, so serialize fans out over the pool: zero-out-degree
/// vertices, duplicate edges, and no edge from rank 0 into rank 2.
graph::DistributedGraph shapes_dg(bool weighted) {
  constexpr int kWorkers = 3;
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 15;
  opts.num_edges = 1u << 18;
  opts.seed = 23;
  opts.weighted = weighted;
  opts.max_weight = 50;
  const graph::Graph rmat = graph::rmat(opts);
  graph::Graph g(rmat.num_vertices());
  for (VertexId v = 0; v < rmat.num_vertices(); ++v) {
    const auto edges = rmat.out(v);
    for (const graph::Edge& e : edges) {
      if (v % kWorkers == 0 && e.dst % kWorkers == 2) continue;
      g.add_edge(v, e.dst, e.weight);
    }
    if (v % 11 == 0 && !edges.empty() && edges[0].dst % kWorkers != 2) {
      g.add_edge(v, edges[0].dst, edges[0].weight);  // a duplicate edge
    }
  }
  return graph::DistributedGraph(
      g, graph::hash_partition(g.num_vertices(), kWorkers));
}

template <typename T>
struct ShapeValue {
  T x{};
};

/// One program of the wire-parity matrix, written once: Spec says what a
/// vertex holds, how it folds messages and when it publishes. With
/// kPublish it calls publish(); otherwise the per-edge send_message()
/// loop publish() stands for, on a channel of the same name.
template <typename Spec, bool kPublish>
class ShapeWorker : public Worker<Vertex<ShapeValue<typename Spec::T>>> {
 public:
  using T = typename Spec::T;
  using V = Vertex<ShapeValue<T>>;

  void compute(V& v) override {
    T& x = v.value().x;
    const int step = this->step_num();
    bool publish = true;
    if (step == 1) {
      x = Spec::init(v.id());  // every vertex publishes: the gather plan
    } else {
      publish = Spec::update(step, v.id(), x, msg_.has_message(),
                             msg_.get_message(), !v.edges().empty());
    }
    if (publish) {
      if constexpr (kPublish) {
        msg_.publish(x);
      } else {
        for (const auto& e : v.edges()) {
          msg_.send_message(e.dst, Spec::edge(x, e.weight));
        }
      }
    }
    if (step >= Spec::kActiveSteps) v.vote_to_halt();
  }

 private:
  static CombinedMessage<V, T> channel(ShapeWorker* self) {
    if constexpr (kPublish) {
      return {self, Spec::combiner(), &Spec::edge, "shape"};
    } else {
      return {self, Spec::combiner(), "shape"};
    }
  }
  CombinedMessage<V, T> msg_ = channel(this);
};

/// Float sum with unit weights. Superstep 1 publishes everywhere, zero
/// out-degree vertices included; 2-4 publish a frontier (the out-edge
/// index); 5 publishes every vertex with out-edges (the plan again).
struct FloatSumSpec {
  using T = double;
  static constexpr int kActiveSteps = 6;
  static Combiner<T> combiner() { return make_combiner(c_sum, 0.0); }
  static T edge(const T& x, graph::Weight) { return x; }
  static T init(VertexId id) { return 1.0 / (3.0 + id); }
  static bool update(int step, VertexId id, T& x, bool has, const T& msg,
                     bool has_edges) {
    if (has) x = 0.5 * x + msg;
    if (step == 5) return has_edges;
    return step < 5 && (id * 7 + static_cast<VertexId>(step)) % 5 < 2;
  }
};

/// Weighted min-label relaxation: superstep 1 publishes everywhere
/// (the weighted plan), then only improved vertices (the index).
struct WeightedMinSpec {
  using T = std::uint64_t;
  static constexpr int kActiveSteps = 1;
  static Combiner<T> combiner() {
    return make_combiner(c_min, std::uint64_t{graph::kInfWeight});
  }
  static T edge(const T& x, graph::Weight w) { return x + w; }
  static T init(VertexId id) { return (id * 2654435761u) % 100003u; }
  static bool update(int, VertexId, T& x, bool has, const T& msg, bool) {
    if (!has || msg >= x) return false;
    x = msg;
    return true;
  }
};

/// A custom combiner whose fold is order-sensitive (neither associative
/// nor commutative), so any reordering of the fold shows in the bits.
struct CustomSpec {
  using T = std::uint64_t;
  static constexpr int kActiveSteps = 6;
  static Combiner<T> combiner() {
    return make_combiner(
        [](const T& a, const T& b) { return a * 3 + b; }, T{0});
  }
  static T edge(const T& x, graph::Weight) { return x; }
  static T init(VertexId id) { return id * 0x9E3779B97F4A7C15ull + 1; }
  static bool update(int step, VertexId id, T& x, bool has, const T& msg,
                     bool has_edges) {
    if (has) x ^= msg;
    if (step == 5) return has_edges;
    return step < 5 && (id * 7 + static_cast<VertexId>(step)) % 5 < 2;
  }
};

/// Per-vertex result bits and per-rank round hashes of one run.
struct WireRun {
  std::vector<std::uint64_t> values;
  std::vector<pregel::testing::RankRecord> records;
};

template <typename WorkerT>
WireRun wire_run(const graph::DistributedGraph& dg, const Mode& mode) {
  WireRun run;
  run.values.assign(dg.num_vertices(), 0);
  run.records = pregel::testing::run_recorded<WorkerT>(
      dg, pin<WorkerT>(mode), [&run](WorkerT& w, int) {
        w.for_each_vertex([&run](const auto& v) {
          run.values[v.id()] = std::bit_cast<std::uint64_t>(v.value().x);
        });
      });
  return run;
}

void expect_same_wire_run(const WireRun& got, const WireRun& want,
                          const std::string& label) {
  EXPECT_EQ(got.values, want.values) << label;
  ASSERT_EQ(got.records.size(), want.records.size()) << label;
  for (std::size_t r = 0; r < want.records.size(); ++r) {
    EXPECT_EQ(got.records[r].round_hashes, want.records[r].round_hashes)
        << label << ", rank " << r;
  }
}

/// Publish and per-edge sends, across the mode matrix: every round's
/// bytes and every vertex's bits equal the sequential publish run's.
template <typename Spec>
void expect_wire_parity(const graph::DistributedGraph& dg) {
  const WireRun want = wire_run<ShapeWorker<Spec, true>>(dg, kModes[0]);
  ASSERT_GT(want.records[0].exchanges, 2u);  // plan and frontier rounds
  for (const Mode& mode : kModes) {
    expect_same_wire_run(wire_run<ShapeWorker<Spec, true>>(dg, mode), want,
                         "publish, " + mode_name(mode));
    expect_same_wire_run(wire_run<ShapeWorker<Spec, false>>(dg, mode), want,
                         "per-edge sends, " + mode_name(mode));
  }
}

TEST(Publish, FloatSumWireBytesMatchPerEdgeSends) {
  expect_wire_parity<FloatSumSpec>(shapes_dg(/*weighted=*/false));
}

TEST(Publish, WeightedMinWireBytesMatchPerEdgeSends) {
  expect_wire_parity<WeightedMinSpec>(shapes_dg(/*weighted=*/true));
}

TEST(Publish, CustomCombinerWireBytesMatchPerEdgeSends) {
  expect_wire_parity<CustomSpec>(shapes_dg(/*weighted=*/false));
}

// ------------------------------------------------------------ guard rails --

struct GuardValue {
  std::uint64_t x = 0;
};
using GuardVertex = Vertex<GuardValue>;

/// Publishes twice for one vertex in one superstep: the second value would
/// silently replace the first, so publish() must throw. (Superstep 1
/// only, so the run still halts if the guard ever goes missing.)
class DoublePublishWorker : public Worker<GuardVertex> {
 public:
  void compute(GuardVertex& v) override {
    if (step_num() == 1) {
      msg_.publish(1);
      msg_.publish(2);
    }
    v.vote_to_halt();
  }

 private:
  CombinedMessage<GuardVertex, std::uint64_t> msg_{
      this, make_combiner(c_sum, std::uint64_t{0}),
      [](const std::uint64_t& x, graph::Weight) { return x; }, "guard"};
};

/// Even vertices publish, odd ones send per edge on the same channel in
/// one superstep: the deferred expansion would reorder the fold.
/// (Superstep 1 only, so the run still halts without the guard.)
class PublishAndSendWorker : public Worker<GuardVertex> {
 public:
  void compute(GuardVertex& v) override {
    if (step_num() == 1 && v.id() % 2 == 0) {
      msg_.publish(1);
    } else if (step_num() == 1) {
      for (const auto& e : v.edges()) msg_.send_message(e.dst, 1);
    }
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

/// Runs WorkerT on one rank and returns the logic_error message it must
/// throw ("" when it throws none). Single rank so the throwing worker
/// cannot strand peers at a barrier.
template <typename WorkerT>
std::string logic_error_of(const graph::DistributedGraph& dg) {
  try {
    algo::run_only<WorkerT>(dg);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(Publish, PublishTwiceForOneVertexThrows) {
  const auto dg = rmat_dg(1);
  const std::string what = logic_error_of<DoublePublishWorker>(dg);
  EXPECT_NE(what.find("'guard'"), std::string::npos) << what;
  EXPECT_NE(what.find("twice"), std::string::npos) << what;
}

TEST(Publish, PublishAndSendMessageInOnePushSuperstepThrows) {
  const auto dg = rmat_dg(1);
  const std::string what = logic_error_of<PublishAndSendWorker>(dg);
  EXPECT_NE(what.find("'guard'"), std::string::npos) << what;
  EXPECT_NE(what.find("publish and send_message"), std::string::npos)
      << what;
}

TEST(Publish, PublishRequiresEdgeTransformConstructor) {
  const auto dg = rmat_dg(1);
  const std::string what = logic_error_of<PublishWithoutEdgeFnWorker>(dg);
  EXPECT_NE(what.find("'guard'"), std::string::npos) << what;
  EXPECT_NE(what.find("edge transform"), std::string::npos) << what;
}

}  // namespace
