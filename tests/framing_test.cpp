// Tests for the framed per-channel wire protocol (runtime/exchange.hpp),
// the kMaxChannels limit, and the intra-rank parallel compute phase
// (PGCH_COMPUTE_THREADS): misbehaving channels must fail loudly with
// frame-mismatch errors, per-channel byte accounting must match the frame
// lengths exactly, and multi-threaded compute must produce bitwise
// identical results.

#include <gtest/gtest.h>

#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "core/combined_message.hpp"
#include "algorithms/runner.hpp"
#include "core/pregel_channel.hpp"
#include "graph/generators.hpp"
#include "runtime/barrier.hpp"
#include "runtime/buffer.hpp"
#include "runtime/compute_pool.hpp"
#include "runtime/exchange.hpp"
#include "runtime/team.hpp"

namespace {

using namespace pregel;
using namespace pregel::core;
using pregel::runtime::Barrier;
using pregel::runtime::Buffer;
using pregel::runtime::BufferExchange;
using pregel::runtime::ChannelFrame;
using pregel::runtime::FrameMismatchError;
using pregel::runtime::ProtocolError;
using pregel::runtime::WorkerTeam;

graph::DistributedGraph make_ring(graph::VertexId n, int workers) {
  graph::Graph g(n);
  for (graph::VertexId v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  return graph::DistributedGraph(g, graph::hash_partition(n, workers));
}

// ------------------------------------------------------------- Buffer -----

TEST(Buffer, ClearKeepsCapacityShrinkReleasesIt) {
  Buffer b;
  for (int i = 0; i < 1000; ++i) b.write<std::uint64_t>(i);
  const std::size_t cap = b.capacity();
  EXPECT_GE(cap, 1000 * sizeof(std::uint64_t));
  b.clear();
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.capacity(), cap);  // round buffers must not reallocate
  b.shrink();
  EXPECT_EQ(b.capacity(), 0u);
}

TEST(Buffer, SwapExchangesContentsWithoutCopy) {
  Buffer a, b;
  a.write<std::uint32_t>(7);
  b.write<std::uint32_t>(9);
  b.write<std::uint32_t>(11);
  swap(a, b);
  EXPECT_EQ(a.read<std::uint32_t>(), 9u);
  EXPECT_EQ(a.read<std::uint32_t>(), 11u);
  EXPECT_EQ(b.read<std::uint32_t>(), 7u);
}

TEST(Buffer, ReadPastEndThrowsProtocolError) {
  Buffer b;
  b.write<std::uint32_t>(1);
  (void)b.read<std::uint32_t>();
  EXPECT_THROW(b.read<std::uint8_t>(), ProtocolError);
}

TEST(Buffer, ReadPastFrameLimitThrowsProtocolError) {
  Buffer b;
  b.write<std::uint32_t>(1);
  b.write<std::uint32_t>(2);
  b.set_read_limit(sizeof(std::uint32_t));  // only the first value visible
  EXPECT_EQ(b.read<std::uint32_t>(), 1u);
  EXPECT_THROW(b.read<std::uint32_t>(), ProtocolError);
  b.clear_read_limit();
  EXPECT_EQ(b.read<std::uint32_t>(), 2u);
}

// --------------------------------------------- exchange-level framing -----

TEST(FramedExchange, AccountsPayloadPerChannelAndOverheadSeparately) {
  constexpr int kW = 2;
  Barrier barrier(kW);
  BufferExchange ex(kW, barrier);
  std::vector<std::uint64_t> got(kW * kW, 0);

  WorkerTeam::run(kW, [&](int rank) {
    // Channel 0 ships one u64 per peer; channel 1 ships nothing.
    ex.begin_frames(rank, 0);
    for (int to = 0; to < kW; ++to) {
      ex.outbox(rank, to).write<std::uint64_t>(
          static_cast<std::uint64_t>(rank * 10 + to));
    }
    ex.end_frames(rank, 0);
    ex.begin_frames(rank, 1);
    ex.end_frames(rank, 1);
    ex.exchange(rank);

    ex.open_frames(rank, 0, "c0");
    for (int from = 0; from < kW; ++from) {
      got[static_cast<std::size_t>(rank * kW + from)] =
          ex.inbox(rank, from).read<std::uint64_t>();
    }
    ex.close_frames(rank, 0, "c0");
    ex.open_frames(rank, 1, "c1");  // empty frames still validate
    ex.close_frames(rank, 1, "c1");
  });

  for (int rank = 0; rank < kW; ++rank) {
    for (int from = 0; from < kW; ++from) {
      EXPECT_EQ(got[static_cast<std::size_t>(rank * kW + from)],
                static_cast<std::uint64_t>(from * 10 + rank));
    }
  }
  // Frame-accounted payloads: channel 0 = kW peers x 8 bytes per rank
  // (the rank-local payload counts like any other), channel 1 = 0.
  // Overhead = 2 channels x (kW - 1) REMOTE peers x header per rank: the
  // self outbox ships no header, its frame is validated lane-locally.
  std::uint64_t payload = 0, overhead = 0;
  for (int rank = 0; rank < kW; ++rank) {
    EXPECT_EQ(ex.channel_bytes(rank, 0), kW * sizeof(std::uint64_t));
    EXPECT_EQ(ex.channel_bytes(rank, 1), 0u);
    EXPECT_EQ(ex.frame_overhead_bytes(rank),
              2u * (kW - 1) * sizeof(ChannelFrame));
    payload += ex.channel_bytes(rank, 0) + ex.channel_bytes(rank, 1);
    overhead += ex.frame_overhead_bytes(rank);
  }
  EXPECT_EQ(payload + overhead, ex.total_bytes());
}

TEST(FramedExchange, WrongChannelFrameAtCursorThrows) {
  Barrier barrier(1);
  BufferExchange ex(1, barrier);
  ex.begin_frames(0, 3);
  ex.outbox(0, 0).write<std::uint32_t>(42);
  ex.end_frames(0, 3);
  ex.exchange(0);
  EXPECT_THROW(ex.open_frames(0, 5, "other"), FrameMismatchError);
}

TEST(FramedExchange, NestedBeginFramesThrows) {
  Barrier barrier(1);
  BufferExchange ex(1, barrier);
  ex.begin_frames(0, 0);
  EXPECT_THROW(ex.begin_frames(0, 1), FrameMismatchError);
}

// ------------------------------------------- engine-level frame faults ----

struct NopValue {};
using NopVertex = Vertex<NopValue>;

/// Writes one u32 per peer but reads two per inbox: the second read
/// crosses the frame boundary and must throw before corrupting the next
/// channel's lane. Deterministic on every rank (all ranks throw, so no
/// rank is left waiting at a barrier).
template <typename VertexT>
class OverReadChannel : public Channel {
 public:
  explicit OverReadChannel(Worker<VertexT>* w) : Channel(w, "overread") {}

  void serialize() override {
    for (int to = 0; to < w().num_workers(); ++to) {
      w().outbox(to).write<std::uint32_t>(1);
    }
  }
  void deserialize() override {
    for (int from = 0; from < w().num_workers(); ++from) {
      (void)w().inbox(from).read<std::uint32_t>();
      (void)w().inbox(from).read<std::uint32_t>();  // past the frame
    }
  }
};

/// Writes one u32 per peer but never reads it: close_frames must flag the
/// under-read.
template <typename VertexT>
class ShortReadChannel : public Channel {
 public:
  explicit ShortReadChannel(Worker<VertexT>* w) : Channel(w, "shortread") {}

  void serialize() override {
    for (int to = 0; to < w().num_workers(); ++to) {
      w().outbox(to).write<std::uint32_t>(7);
    }
  }
  void deserialize() override {}
};

class OverReadWorker : public Worker<NopVertex> {
 public:
  void compute(NopVertex& v) override { v.vote_to_halt(); }

 private:
  OverReadChannel<NopVertex> bad_{this};
};

class ShortReadWorker : public Worker<NopVertex> {
 public:
  void compute(NopVertex& v) override { v.vote_to_halt(); }

 private:
  ShortReadChannel<NopVertex> bad_{this};
};

TEST(FrameFaults, OverReadingChannelThrowsProtocolError) {
  const auto dg = make_ring(8, 2);
  EXPECT_THROW(algo::run_only<OverReadWorker>(dg), ProtocolError);
}

TEST(FrameFaults, ShortReadingChannelThrowsFrameMismatch) {
  const auto dg = make_ring(8, 2);
  EXPECT_THROW(algo::run_only<ShortReadWorker>(dg), FrameMismatchError);
}

/// A (lidx, value)-record channel — CombinedMessage, DirectMessage or
/// Propagation over ValT — whose serialize() forges one well-framed
/// section of packed records per peer. Kind::kIndex writes one record
/// naming a local index past the receiver's slice; Kind::kTruncated
/// writes one valid record under a count claiming two. Every rank forges,
/// so every rank's delivery throws.
enum class Forgery { kIndex, kTruncated };

template <typename Base, typename ValT, Forgery kKind>
class ForgedRecordChannel : public Base {
 public:
  template <typename WorkerT>
    requires std::constructible_from<Base, WorkerT*, std::string>
  explicit ForgedRecordChannel(WorkerT* w) : Base(w, "forged") {}

  template <typename WorkerT>
    requires(!std::constructible_from<Base, WorkerT*, std::string>)
  explicit ForgedRecordChannel(WorkerT* w)
      : Base(w, make_combiner(c_min, std::numeric_limits<ValT>::max()),
             "forged") {}

  void serialize() override {
    using Record = detail::WireRecord<ValT>;
    const bool truncated = kKind == Forgery::kTruncated;
    for (int to = 0; to < this->w().num_workers(); ++to) {
      Buffer& out = this->w().outbox(to);
      out.write<std::uint32_t>(truncated ? 2 : 1);
      const std::uint32_t lidx =
          truncated ? 0 : this->w().dgraph().num_local(to) + 5;
      Record::put(out.extend(Record::kBytes), lidx, ValT{1});
    }
  }
};

template <template <typename, typename> class Base, typename ValT,
          Forgery kKind>
class ForgedRecordWorker : public Worker<NopVertex> {
 public:
  void compute(NopVertex& v) override { v.vote_to_halt(); }

 private:
  ForgedRecordChannel<Base<NopVertex, ValT>, ValT, kKind> bad_{this};
};

template <template <typename, typename> class Base, typename ValT>
void expect_out_of_range_index_rejected() {
  const auto dg = make_ring(8, 2);
  try {
    algo::run_only<ForgedRecordWorker<Base, ValT, Forgery::kIndex>>(dg);
    FAIL() << "a forged out-of-range local index was accepted";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("forged"), std::string::npos) << what;
    EXPECT_NE(what.find("local index"), std::string::npos) << what;
  }
}

TEST(FrameFaults, ForgedOutOfRangeIndexThrowsProtocolError) {
  expect_out_of_range_index_rejected<CombinedMessage, std::uint32_t>();
  expect_out_of_range_index_rejected<Propagation, std::uint32_t>();
  // 8-byte values: packed 12-byte records.
  expect_out_of_range_index_rejected<CombinedMessage, std::uint64_t>();
  expect_out_of_range_index_rejected<DirectMessage, std::uint64_t>();
}

TEST(FrameFaults, TruncatedRecordSectionThrowsProtocolError) {
  const auto dg = make_ring(8, 2);
  using algo::run_only;
  EXPECT_THROW(
      (run_only<ForgedRecordWorker<CombinedMessage, std::uint64_t,
                                   Forgery::kTruncated>>(dg)),
      ProtocolError);
  EXPECT_THROW((run_only<ForgedRecordWorker<DirectMessage, std::uint64_t,
                                            Forgery::kTruncated>>(dg)),
               ProtocolError);
  EXPECT_THROW((run_only<ForgedRecordWorker<Propagation, std::uint32_t,
                                            Forgery::kTruncated>>(dg)),
               ProtocolError);
}

/// A ScatterCombine whose serialize() forges one well-framed section per
/// peer under a tag byte the channel never writes, followed by an empty
/// value count.
class ForgedTagChannel : public ScatterCombine<NopVertex, std::uint32_t> {
 public:
  explicit ForgedTagChannel(Worker<NopVertex>* w)
      : ScatterCombine(w, make_combiner(c_min, std::uint32_t{~0u}),
                       "forged") {}

  void serialize() override {
    for (int to = 0; to < w().num_workers(); ++to) {
      Buffer& out = w().outbox(to);
      out.write<std::uint8_t>(9);
      out.write<std::uint32_t>(0);
    }
  }
};

class ForgedTagWorker : public Worker<NopVertex> {
 public:
  void compute(NopVertex& v) override { v.vote_to_halt(); }

 private:
  ForgedTagChannel bad_{this};
};

TEST(FrameFaults, ForgedWireTagThrowsProtocolError) {
  const auto dg = make_ring(8, 2);
  try {
    algo::run_only<ForgedTagWorker>(dg);
    FAIL() << "a forged wire tag was read as a values payload";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("forged"), std::string::npos) << what;
    EXPECT_NE(what.find("tag"), std::string::npos) << what;
  }
}

// -------------------------------------------------------- kMaxChannels ----

class TooManyChannelsWorker : public Worker<NopVertex> {
 public:
  TooManyChannelsWorker() {
    for (int i = 0; i <= kMaxChannels; ++i) {
      chans_.push_back(std::make_unique<DirectMessage<NopVertex, int>>(
          this, "c" + std::to_string(i)));
    }
  }
  void compute(NopVertex& v) override { v.vote_to_halt(); }

 private:
  std::vector<std::unique_ptr<DirectMessage<NopVertex, int>>> chans_;
};

TEST(ChannelLimit, ExceedingKMaxChannelsThrows) {
  const auto dg = make_ring(4, 1);
  EXPECT_THROW(algo::run_only<TooManyChannelsWorker>(dg), std::logic_error);
}

// ----------------------------------- per-channel stats match the frames ---

TEST(FrameAccounting, StatsMatchFrameAccountedBytesExactly) {
  // Two channels with very different traffic; the per-channel stats must
  // equal the frame-length sums and, with the overhead, the exchange total.
  const auto dg = make_ring(48, 4);
  std::vector<double> ranks;
  const auto stats = algo::run_collect<algo::PageRankCombined>(
      dg, ranks, [](const algo::PRVertex& v) { return v.value().rank; },
      [](algo::PageRankCombined& w) { w.iterations = 5; });
  ASSERT_EQ(stats.bytes_by_channel.size(), 2u);  // "pr" + "sink"
  std::uint64_t payload = 0;
  for (const auto& [name, bytes] : stats.bytes_by_channel) payload += bytes;
  EXPECT_GT(payload, 0u);
  EXPECT_GT(stats.frame_bytes, 0u);
  EXPECT_EQ(payload + stats.frame_bytes, stats.message_bytes);
}

// ------------------------------------------------ parallel compute phase --

/// Superstep 1: every vertex direct-sends its id to every out-neighbor.
/// Superstep 2: every vertex records the sum of what arrived.
struct SumValue {
  std::uint64_t sum = 0;
};
using SumVertex = Vertex<SumValue>;

class DirectSumWorker : public Worker<SumVertex> {
 public:
  void compute(SumVertex& v) override {
    if (step_num() == 1) {
      for (const auto& e : v.edges()) msg_.send_message(e.dst, v.id());
    } else {
      for (const auto m : msg_.get_iterator()) v.value().sum += m;
    }
    v.vote_to_halt();
  }

 private:
  DirectMessage<SumVertex, std::uint64_t> msg_{this, "sum"};
};

TEST(ParallelCompute, DirectMessageMatchesSequential) {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 10;
  opts.num_edges = 1u << 13;
  const graph::Graph g = graph::rmat(opts);
  const graph::DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), 4));

  std::vector<std::uint64_t> seq, par;
  algo::run_collect<DirectSumWorker>(
      dg, seq, [](const SumVertex& v) { return v.value().sum; },
      [](DirectSumWorker& w) { w.set_compute_threads(1); });
  algo::run_collect<DirectSumWorker>(
      dg, par, [](const SumVertex& v) { return v.value().sum; },
      [](DirectSumWorker& w) { w.set_compute_threads(4); });
  EXPECT_EQ(seq, par);
}

/// PageRank must be BITWISE identical across thread counts: per-slot
/// channel logs replayed in slot order reproduce the sequential combining
/// sequence, floats included.
template <typename PRWorker>
std::vector<std::uint64_t> pagerank_bits(const graph::DistributedGraph& dg,
                                         int threads) {
  std::vector<double> ranks;
  algo::run_collect<PRWorker>(
      dg, ranks, [](const algo::PRVertex& v) { return v.value().rank; },
      [threads](PRWorker& w) {
        w.iterations = 10;
        w.set_compute_threads(threads);
      });
  std::vector<std::uint64_t> bits(ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    bits[i] = std::bit_cast<std::uint64_t>(ranks[i]);
  }
  return bits;
}

TEST(ParallelCompute, PageRankCombinedBitwiseIdentical) {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 10;
  opts.num_edges = 1u << 13;
  const graph::Graph g = graph::rmat(opts);
  const graph::DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), 4));
  EXPECT_EQ(pagerank_bits<algo::PageRankCombined>(dg, 1),
            pagerank_bits<algo::PageRankCombined>(dg, 3));
}

TEST(ParallelCompute, PageRankScatterBitwiseIdentical) {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 10;
  opts.num_edges = 1u << 13;
  const graph::Graph g = graph::rmat(opts);
  const graph::DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), 4));
  EXPECT_EQ(pagerank_bits<algo::PageRankScatter>(dg, 1),
            pagerank_bits<algo::PageRankScatter>(dg, 3));
}

/// Propagation seeded from a parallel compute phase must converge to the
/// same labels (min-label over a ring reaches 0 everywhere).
struct LabelValue {
  graph::VertexId label = 0;
};
using LabelVertex = Vertex<LabelValue>;

class ParPropWorker : public Worker<LabelVertex> {
 public:
  void compute(LabelVertex& v) override {
    if (step_num() == 1) {
      for (const auto& e : v.edges()) prop_.add_edge(e.dst);
      prop_.set_value(v.id());
      return;
    }
    v.value().label = prop_.get_value();
    v.vote_to_halt();
  }

 private:
  Propagation<LabelVertex, graph::VertexId> prop_{
      this, make_combiner(c_min, graph::kInvalidVertex), "minlabel"};
};

TEST(ParallelCompute, PropagationSeededInParallelConverges) {
  const auto dg = make_ring(96, 4);
  std::vector<graph::VertexId> labels;
  algo::run_collect<ParPropWorker>(
      dg, labels, [](const LabelVertex& v) { return v.value().label; },
      [](ParPropWorker& w) { w.set_compute_threads(3); });
  for (const auto l : labels) EXPECT_EQ(l, 0u);
}

/// RequestRespond with parallel-staged requests must deliver the same
/// responses.
struct FetchValue {
  std::uint64_t secret = 0;
  std::uint64_t fetched = 0;
};
using FetchVertex = Vertex<FetchValue>;

class ParFetchWorker : public Worker<FetchVertex> {
 public:
  graph::VertexId n = 0;

  void compute(FetchVertex& v) override {
    if (step_num() == 1) {
      v.value().secret = 5000 + v.id();
      rr_.add_request((v.id() + 3) % n);
    } else {
      v.value().fetched = rr_.get_respond();
    }
    v.vote_to_halt();
  }

 private:
  RequestRespond<FetchVertex, std::uint64_t> rr_{
      this, [](const FetchVertex& u) { return u.value().secret; }, "fetch"};
};

TEST(ParallelCompute, RequestRespondMatchesSequential) {
  constexpr graph::VertexId kN = 60;
  const auto dg = make_ring(kN, 4);
  std::vector<std::uint64_t> fetched;
  algo::run_collect<ParFetchWorker>(
      dg, fetched, [](const FetchVertex& v) { return v.value().fetched; },
      [](ParFetchWorker& w) {
        w.n = kN;
        w.set_compute_threads(4);
      });
  for (graph::VertexId v = 0; v < kN; ++v) {
    EXPECT_EQ(fetched[v], 5000u + (v + 3) % kN);
  }
}

// --------------------------------------------------------- ComputePool ----

TEST(ComputePool, RunsEverySlotAndRethrows) {
  pregel::runtime::ComputePool pool(4);
  std::vector<int> hits(4, 0);
  pool.run([&](int slot) { hits[static_cast<std::size_t>(slot)]++; });
  pool.run([&](int slot) { hits[static_cast<std::size_t>(slot)]++; });
  for (const int h : hits) EXPECT_EQ(h, 2);

  EXPECT_THROW(pool.run([](int slot) {
                 if (slot == 2) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  // The pool must stay usable after an exception.
  pool.run([&](int slot) { hits[static_cast<std::size_t>(slot)]++; });
  for (const int h : hits) EXPECT_EQ(h, 3);
}

}  // namespace
