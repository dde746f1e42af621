// Tests for pipelined superstep communication (DESIGN.md section 10):
// the chunked streaming format and its strict decoder, the overlap
// accounting of the exchange layer, and the engine-level parity matrix —
// pipelined rounds must be invisible in every observable (vertex results
// bitwise, per-channel payload bytes, superstep and round counts) across
// algorithms, world sizes and comm-phase parallelism, with the bulk path
// as the oracle.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/runner.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "core/pregel_channel.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "runtime/chunk.hpp"
#include "runtime/exchange.hpp"
#include "runtime/tcp_transport.hpp"
#include "runtime/team.hpp"
#include "tcp_mesh.hpp"

namespace {

using namespace pregel;
using pregel::runtime::ChunkDecoder;
using pregel::runtime::ChunkHeader;
using pregel::runtime::DecodedChunk;
using pregel::runtime::Exchange;
using pregel::runtime::FrameMismatchError;
using pregel::runtime::kChunkChannelEnd;
using pregel::runtime::kChunkMagic;
using pregel::runtime::kChunkRoundLast;
using pregel::runtime::RunStats;
using pregel::runtime::WorkerTeam;
using pregel::testing::make_mesh;

// ----------------------------------------------------- chunk unit tests --

std::vector<std::byte> pattern_bytes(std::size_t n, unsigned salt) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131 + salt) & 0xFF);
  }
  return v;
}

void append_encoded(std::vector<std::byte>& stream, const ChunkHeader& h,
                    const std::byte* payload) {
  const auto* hb = reinterpret_cast<const std::byte*>(&h);
  stream.insert(stream.end(), hb, hb + sizeof(ChunkHeader));
  stream.insert(stream.end(), payload, payload + h.len);
}

TEST(ChunkFormat, ForEachChunkSplitsSequencesAndFlags) {
  const auto data = pattern_bytes(1000, 1);
  std::vector<ChunkHeader> headers;
  std::vector<std::byte> reassembled;
  runtime::for_each_chunk(5, data.data(), data.size(), 256,
                          /*last_region=*/true,
                          [&](const ChunkHeader& h, const std::byte* p) {
                            headers.push_back(h);
                            reassembled.insert(reassembled.end(), p, p + h.len);
                          });
  ASSERT_EQ(headers.size(), 4u);  // 256+256+256+232
  for (std::size_t i = 0; i < headers.size(); ++i) {
    EXPECT_EQ(headers[i].magic, kChunkMagic);
    EXPECT_EQ(headers[i].channel, 5u);
    EXPECT_EQ(headers[i].seq, static_cast<std::uint32_t>(i));
    const bool last = i + 1 == headers.size();
    EXPECT_EQ(headers[i].flags,
              last ? (kChunkChannelEnd | kChunkRoundLast) : 0u);
    EXPECT_EQ(headers[i].len, last ? 232u : 256u);
  }
  EXPECT_EQ(reassembled, data);
}

TEST(ChunkFormat, EmptyRegionShipsOneZeroLenChannelEndChunk) {
  int calls = 0;
  runtime::for_each_chunk(3, nullptr, 0, 256, /*last_region=*/false,
                          [&](const ChunkHeader& h, const std::byte*) {
                            ++calls;
                            EXPECT_EQ(h.len, 0u);
                            EXPECT_EQ(h.seq, 0u);
                            EXPECT_EQ(h.flags, kChunkChannelEnd);
                          });
  EXPECT_EQ(calls, 1);
}

/// Encode `regions` (channel -> payload) with for_each_chunk into one
/// stream, the way pipeline_flush would.
std::vector<std::byte> encode_stream(
    const std::vector<std::pair<int, std::vector<std::byte>>>& regions,
    std::size_t chunk_bytes) {
  std::vector<std::byte> stream;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    const auto& [ch, payload] = regions[r];
    runtime::for_each_chunk(ch, payload.data(), payload.size(), chunk_bytes,
                            r + 1 == regions.size(),
                            [&](const ChunkHeader& h, const std::byte* p) {
                              append_encoded(stream, h, p);
                            });
  }
  return stream;
}

TEST(ChunkDecoderTest, ReassemblesAcrossRaggedFeeds) {
  const std::vector<std::pair<int, std::vector<std::byte>>> regions = {
      {0, pattern_bytes(700, 7)},
      {2, {}},
      {9, pattern_bytes(150, 9)},
  };
  const auto stream = encode_stream(regions, 64);

  // Feed in awkward slice sizes; chunks must pop in order with the exact
  // payload bytes.
  ChunkDecoder d;
  std::vector<std::byte> got0, got9;
  std::size_t off = 0, slice = 1;
  DecodedChunk c;
  bool saw_empty_region = false;
  while (off < stream.size()) {
    const std::size_t n = std::min(slice, stream.size() - off);
    d.feed(stream.data() + off, n);
    off += n;
    slice = slice * 3 % 97 + 1;
    while (d.next(&c)) {
      if (c.header.channel == 0) {
        got0.insert(got0.end(), c.payload.begin(), c.payload.end());
      } else if (c.header.channel == 9) {
        got9.insert(got9.end(), c.payload.begin(), c.payload.end());
      } else {
        EXPECT_EQ(c.header.channel, 2u);
        EXPECT_TRUE(c.payload.empty());
        saw_empty_region = true;
      }
    }
  }
  EXPECT_TRUE(d.round_complete());
  EXPECT_NO_THROW(d.finish());
  EXPECT_TRUE(saw_empty_region);
  EXPECT_EQ(got0, regions[0].second);
  EXPECT_EQ(got9, regions[2].second);

  // reset() arms the decoder for another round on the same object.
  d.reset();
  EXPECT_FALSE(d.round_complete());
  d.feed(stream.data(), stream.size());
  std::size_t chunks = 0;
  while (d.next(&c)) ++chunks;
  EXPECT_GT(chunks, 3u);
  EXPECT_TRUE(d.round_complete());
}

TEST(ChunkDecoderTest, BytesNeededDrivesExactReads) {
  const auto stream =
      encode_stream({{1, pattern_bytes(100, 3)}}, 1u << 10);
  ChunkDecoder d;
  // Header first...
  EXPECT_EQ(d.bytes_needed(), sizeof(ChunkHeader));
  d.feed(stream.data(), 10);
  EXPECT_EQ(d.bytes_needed(), sizeof(ChunkHeader) - 10);
  d.feed(stream.data() + 10, 6);
  // ...then exactly the payload.
  EXPECT_EQ(d.bytes_needed(), 100u);
  d.feed(stream.data() + 16, 100);
  DecodedChunk c;
  ASSERT_TRUE(d.next(&c));
  EXPECT_EQ(c.payload.size(), 100u);
  // Round over: a driver reading bytes_needed() never pulls post-round
  // (control-lane) bytes into the decoder.
  EXPECT_EQ(d.bytes_needed(), 0u);
  EXPECT_TRUE(d.round_complete());
}

TEST(ChunkDecoderTest, RejectsCorruptTruncatedAndReorderedStreams) {
  const std::vector<std::pair<int, std::vector<std::byte>>> regions = {
      {0, pattern_bytes(200, 1)},
      {4, pattern_bytes(200, 2)},
  };
  const auto stream = encode_stream(regions, 64);

  const auto expect_rejected = [](std::vector<std::byte> s) {
    ChunkDecoder d;
    DecodedChunk c;
    EXPECT_THROW(
        {
          d.feed(s.data(), s.size());
          while (d.next(&c)) {
          }
          d.finish();
        },
        FrameMismatchError);
  };

  // Bad magic on the first header.
  {
    auto s = stream;
    s[0] = static_cast<std::byte>(0xFF);
    expect_rejected(std::move(s));
  }
  // Unknown flag bits.
  {
    auto s = stream;
    s[6] = static_cast<std::byte>(0x80);  // flags is bytes 6..7
    expect_rejected(std::move(s));
  }
  // Seq discontinuity: patch the second chunk's seq (bytes 8..11 of its
  // header; chunk 0 is 16 + 64 bytes long).
  {
    auto s = stream;
    const std::size_t second = sizeof(ChunkHeader) + 64;
    std::uint32_t bogus = 7;
    std::memcpy(s.data() + second + 8, &bogus, sizeof bogus);
    expect_rejected(std::move(s));
  }
  // Duplicated chunk (re-sent seq 0): decoder sees seq 0 twice.
  {
    auto s = stream;
    std::vector<std::byte> dup(s.begin(),
                               s.begin() + sizeof(ChunkHeader) + 64);
    s.insert(s.begin() + sizeof(ChunkHeader) + 64, dup.begin(), dup.end());
    expect_rejected(std::move(s));
  }
  // Non-ascending regions: channel 4 then channel 0.
  {
    expect_rejected(encode_stream(
        {{4, pattern_bytes(80, 2)}, {0, pattern_bytes(80, 1)}}, 64));
  }
  // Round-last without channel-end.
  {
    std::vector<std::byte> s;
    ChunkHeader h{};
    h.magic = kChunkMagic;
    h.channel = 0;
    h.flags = kChunkRoundLast;
    h.seq = 0;
    h.len = 0;
    append_encoded(s, h, nullptr);
    expect_rejected(std::move(s));
  }
  // Oversize len.
  {
    std::vector<std::byte> s;
    ChunkHeader h{};
    h.magic = kChunkMagic;
    h.channel = 0;
    h.flags = kChunkChannelEnd | kChunkRoundLast;
    h.seq = 0;
    h.len = static_cast<std::uint32_t>(runtime::kMaxChunkPayload + 1);
    const auto* hb = reinterpret_cast<const std::byte*>(&h);
    s.insert(s.end(), hb, hb + sizeof h);
    expect_rejected(std::move(s));
  }
  // Truncation: cut the stream mid-payload; finish() must throw.
  {
    auto s = stream;
    s.resize(s.size() - 40);
    expect_rejected(std::move(s));
  }
  // Bytes after the round-last chunk.
  {
    auto s = stream;
    ChunkDecoder d;
    d.feed(s.data(), s.size());
    DecodedChunk c;
    EXPECT_THROW(
        {
          while (d.next(&c)) {
          }
          d.feed(s.data(), 16);
        },
        FrameMismatchError);
  }
}

// ------------------------------------ exchange-level overlap accounting --

TEST(PipelineExchange, WireSpanCoversSerializeOfLaterChannels) {
  // Deterministic overlap: each rank flushes channel 0, then "serializes"
  // channel 1 for 50 ms while the wire is busy. The wire-active span must
  // cover that sleep — it runs from the first flush to the last region
  // landing, which cannot happen before channel 1 is flushed.
  constexpr int kW = 2;
  auto mesh = make_mesh(kW);
  std::vector<double> wire(kW, 0.0);
  std::vector<std::uint64_t> bytes_in(kW, 0);
  const auto blob = pattern_bytes(100 * 1024, 5);
  WorkerTeam::run(kW, [&](int rank) {
    Exchange ex(*mesh[static_cast<std::size_t>(rank)]);
    ex.set_chunk_bytes(4096);
    ASSERT_TRUE(ex.pipeline_capable());
    ex.pipeline_begin(rank);
    const int peer = 1 - rank;
    ex.outbox(rank, peer).write_bytes(blob.data(), blob.size());
    ex.pipeline_flush(rank, 0, /*last_channel=*/false);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ex.outbox(rank, peer).write_bytes(blob.data(), 64);
    ex.pipeline_flush(rank, 1, /*last_channel=*/true);
    ex.pipeline_finish_sends(rank);
    ex.pipeline_wait_region(rank, 0);
    ex.pipeline_wait_region(rank, 1);
    ex.pipeline_end(rank);
    wire[static_cast<std::size_t>(rank)] = ex.wire_seconds(rank);
    bytes_in[static_cast<std::size_t>(rank)] =
        ex.inbox(rank, peer).size();
    EXPECT_GT(ex.chunks_sent(rank), 25u);  // 100 KiB / 4 KiB + channel 1
    EXPECT_EQ(ex.chunks_sent(rank), ex.chunks_received(rank));
  });
  for (int r = 0; r < kW; ++r) {
    EXPECT_GE(wire[static_cast<std::size_t>(r)], 0.045);
    // Raw regions (no frame bracket) arrive with the two receiver-built
    // ChannelFrame headers prepended.
    EXPECT_EQ(bytes_in[static_cast<std::size_t>(r)],
              blob.size() + 64 + 2 * sizeof(runtime::ChannelFrame));
  }
}

TEST(PipelineExchange, MidSerializeStreamContinuesSeqAndRebuildsFrames) {
  // The incremental path: a region streamed across pipeline_stream()
  // calls while its frame is still open must reach the peer as the exact
  // bulk inbox bytes — ChannelFrame header (patched length) followed by
  // the payload — with dense chunk seq numbers across the calls.
  constexpr int kW = 2;
  auto mesh = make_mesh(kW);
  const auto blob = pattern_bytes(6000, 7);
  std::vector<int> ok(kW, 0);
  WorkerTeam::run(kW, [&](int rank) {
    Exchange ex(*mesh[static_cast<std::size_t>(rank)]);
    ex.set_chunk_bytes(1024);
    ex.pipeline_begin(rank);
    const int peer = 1 - rank;
    ex.begin_frames(rank, 0);
    ex.outbox(rank, peer).write_bytes(blob.data(), 3000);
    ex.pipeline_stream(rank, 0);  // 2 whole chunks (2048), 952 held back
    ex.outbox(rank, peer).write_bytes(blob.data() + 3000, 3000);
    ex.pipeline_stream(rank, 0);  // 3 more chunks, remainder held back
    ex.end_frames(rank, 0);
    ex.pipeline_flush(rank, 0, /*last_channel=*/true);
    ex.pipeline_finish_sends(rank);
    ex.pipeline_wait_region(rank, 0);
    ex.pipeline_end(rank);
    runtime::Buffer& in = ex.inbox(rank, peer);
    ASSERT_EQ(in.size(), sizeof(runtime::ChannelFrame) + blob.size());
    const auto frame = in.read<runtime::ChannelFrame>();
    EXPECT_EQ(frame.channel_id, 0u);
    EXPECT_EQ(frame.byte_len, blob.size());
    EXPECT_EQ(std::memcmp(in.read_ptr(), blob.data(), blob.size()), 0);
    EXPECT_EQ(ex.chunks_sent(rank), 6u);  // 1024-sized x5 + 880 closer
    ok[static_cast<std::size_t>(rank)] = 1;
  });
  for (const int o : ok) EXPECT_EQ(o, 1);
}

TEST(PipelineExchange, PacedSendsStretchTheWireSpan) {
  // With a simulated link the sender threads pace chunk writes, so the
  // wire-active span is bounded below by bytes/bandwidth — that span is
  // what serialize/deliver hide behind in paced pipelined rounds. The
  // reassembled bytes must be unaffected.
  constexpr int kW = 2;
  constexpr std::size_t kBytes = 256 * 1024;
  constexpr double kBandwidth = 8e6;  // 8 MB/s -> >= 32 ms on the wire
  auto mesh = make_mesh(kW);
  for (auto& t : mesh) t->set_simulated_bandwidth(kBandwidth);
  const auto blob = pattern_bytes(kBytes, 8);
  std::vector<double> wire(kW, 0.0);
  std::vector<int> ok(kW, 0);
  WorkerTeam::run(kW, [&](int rank) {
    Exchange ex(*mesh[static_cast<std::size_t>(rank)]);
    ex.set_chunk_bytes(16 * 1024);
    ex.pipeline_begin(rank);
    const int peer = 1 - rank;
    ex.begin_frames(rank, 0);
    ex.outbox(rank, peer).write_bytes(blob.data(), blob.size());
    ex.end_frames(rank, 0);
    ex.pipeline_flush(rank, 0, /*last_channel=*/true);
    ex.pipeline_finish_sends(rank);
    ex.pipeline_wait_region(rank, 0);
    ex.pipeline_end(rank);
    wire[static_cast<std::size_t>(rank)] = ex.wire_seconds(rank);
    runtime::Buffer& in = ex.inbox(rank, peer);
    ASSERT_EQ(in.size(), sizeof(runtime::ChannelFrame) + blob.size());
    in.read<runtime::ChannelFrame>();
    EXPECT_EQ(std::memcmp(in.read_ptr(), blob.data(), blob.size()), 0);
    ok[static_cast<std::size_t>(rank)] = 1;
  });
  for (int r = 0; r < kW; ++r) {
    // Lower bound only: sleeps can stretch, never shrink.
    EXPECT_GE(wire[static_cast<std::size_t>(r)],
              0.8 * static_cast<double>(kBytes) / kBandwidth);
    EXPECT_EQ(ok[static_cast<std::size_t>(r)], 1);
  }
}

TEST(PipelineExchange, WaitRegionThrowsWhenSchedulesDiverge) {
  // The sender streams channel 2; the receiver asks for channel 0 —
  // mid-stream schedule divergence must fail loudly, not misdeliver.
  constexpr int kW = 2;
  auto mesh = make_mesh(kW);
  std::vector<int> mismatches(kW, 0);
  const auto blob = pattern_bytes(512, 6);
  WorkerTeam::run(kW, [&](int rank) {
    Exchange ex(*mesh[static_cast<std::size_t>(rank)]);
    ex.pipeline_begin(rank);
    ex.outbox(rank, 1 - rank).write_bytes(blob.data(), blob.size());
    ex.pipeline_flush(rank, 2, /*last_channel=*/true);
    ex.pipeline_finish_sends(rank);
    try {
      ex.pipeline_wait_region(rank, 0);
    } catch (const FrameMismatchError&) {
      mismatches[static_cast<std::size_t>(rank)] = 1;
    }
    // The offending chunk was channel 2's only one (and round-last), so
    // the stream is already fully consumed and the round closes cleanly —
    // an engine would abort the run here anyway.
    ex.pipeline_end(rank);
  });
  for (const int m : mismatches) EXPECT_EQ(m, 1);
}

// --------------------------------------------- engine-level parity matrix --

/// One cell of the {bulk, pipelined} x {seq, parallel} matrix.
struct PipeMode {
  bool pipelined;
  int compute;
  int comm;
};

std::string mode_name(const PipeMode& m, int world) {
  return std::string(m.pipelined ? "pipelined" : "bulk") +
         " world=" + std::to_string(world) +
         " compute=" + std::to_string(m.compute) +
         " comm=" + std::to_string(m.comm);
}

constexpr PipeMode kPipeModes[] = {
    {false, 1, 1},  // bulk, one-slot comm (TCP oracle)
    {true, 1, 1},   // pipelined, ranged serialize + one-slot delivery
    {false, 3, 3},  // bulk, everything parallel
    {true, 3, 3},   // pipelined + pool serialize/delivery
};

/// Pin every knob so the matrix is deterministic regardless of the PGCH_*
/// variables the CI legs set. Chunk size is tiny so pipelined regions
/// actually split into many chunks.
template <typename WorkerT>
std::function<void(WorkerT&)> pin(const PipeMode& m,
                                  std::function<void(WorkerT&)> extra = {}) {
  return [m, extra](WorkerT& w) {
    if constexpr (requires(WorkerT& x) { x.set_compute_threads(1); }) {
      w.set_compute_threads(m.compute);
    }
    w.set_comm_threads(m.comm);
    w.set_pipeline(m.pipelined);
    w.set_chunk_bytes(512);
    if (extra) extra(w);
  };
}

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

void expect_identical_traffic(const RunStats& got, const RunStats& want,
                              const std::string& label) {
  EXPECT_EQ(got.supersteps, want.supersteps) << label;
  EXPECT_EQ(got.comm_rounds, want.comm_rounds) << label;
  EXPECT_EQ(got.message_bytes, want.message_bytes) << label;
  EXPECT_EQ(got.frame_bytes, want.frame_bytes) << label;
  EXPECT_EQ(got.bytes_by_channel, want.bytes_by_channel) << label;
  EXPECT_EQ(got.bytes_per_superstep, want.bytes_per_superstep) << label;
  EXPECT_EQ(got.active_per_superstep, want.active_per_superstep) << label;
}

/// Run WorkerT over the full mode matrix at 2 and 4 ranks. The oracle per
/// world size is the in-process bulk sequential run; every TCP cell must
/// reproduce its vertex results (exact — callers hand bit patterns for
/// floats) and per-channel traffic. `expect_pipelined`: whether the
/// workload is message-heavy enough that the collective fallback decision
/// must actually choose pipelined rounds (steady-state rounds above
/// kParallelCommMinItems team bytes).
template <typename WorkerT, typename OutT, typename Extract>
void run_pipeline_matrix(const graph::Graph& g, Extract extract,
                         std::function<void(WorkerT&)> extra,
                         bool expect_pipelined) {
  for (const int world : {2, 4}) {
    const graph::DistributedGraph dg(
        g, graph::hash_partition(g.num_vertices(), world));
    std::vector<OutT> want;
    const RunStats oracle = algo::run_collect<WorkerT>(
        dg, want, extract, pin<WorkerT>(kPipeModes[0], extra));
    for (const PipeMode& m : kPipeModes) {
      const std::string label = mode_name(m, world);
      std::vector<OutT> got;
      const RunStats stats =
          run_tcp<WorkerT>(dg, world, got, extract, pin<WorkerT>(m, extra));
      EXPECT_EQ(got, want) << label;
      expect_identical_traffic(stats, oracle, label);
      if (!m.pipelined) {
        EXPECT_EQ(stats.pipelined_rounds, 0u) << label;
        EXPECT_EQ(stats.chunks_sent, 0u) << label;
        EXPECT_EQ(stats.overlap_seconds, 0.0) << label;
      } else if (expect_pipelined) {
        EXPECT_GT(stats.pipelined_rounds, 0u) << label;
        EXPECT_LE(stats.pipelined_rounds, stats.comm_rounds) << label;
        // Every chunk sent somewhere is received somewhere: the merged
        // team totals agree.
        EXPECT_GT(stats.chunks_sent, 0u) << label;
        EXPECT_EQ(stats.chunks_sent, stats.chunks_received) << label;
      }
    }
  }
}

graph::Graph rmat_graph(bool symmetric) {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 12;
  opts.num_edges = 1u << 15;
  opts.seed = 42;
  graph::Graph g = graph::rmat(opts);
  if (symmetric) g = g.symmetrized();
  return g;
}

TEST(PipelineParity, PageRankFloatBitwise) {
  run_pipeline_matrix<algo::PageRankCombined, std::uint64_t>(
      rmat_graph(false),
      [](const algo::PRVertex& v) {
        return std::bit_cast<std::uint64_t>(v.value().rank);
      },
      [](algo::PageRankCombined& w) { w.iterations = 5; },
      /*expect_pipelined=*/true);
}

TEST(PipelineParity, SsspExactDistances) {
  // Wave-front workload: many rounds sit below the fallback threshold, so
  // this exercises bulk<->pipelined switching mid-run; whether any round
  // pipelines is data-dependent, parity must hold regardless.
  run_pipeline_matrix<algo::Sssp, std::uint64_t>(
      graph::grid_road(32, 32, 300, 7),
      [](const algo::SsspVertex& v) { return v.value().dist; },
      [](algo::Sssp& w) { w.source = 0; },
      /*expect_pipelined=*/false);
}

TEST(PipelineParity, ConnectedComponentsMinLabel) {
  run_pipeline_matrix<algo::WccBasic, graph::VertexId>(
      rmat_graph(true),
      [](const algo::WccVertex& v) { return v.value().label; }, {},
      /*expect_pipelined=*/true);
}

// ------------------------------------------------ RunStats invariants --

TEST(PipelineStats, BulkPhaseSumStaysInsideCommWall) {
  // Bulk mode: serialize/exchange/deliver are disjoint sub-intervals of
  // the comm wall (which additionally covers the votes), so their sum
  // cannot exceed it and no overlap is reported.
  const graph::Graph g = rmat_graph(false);
  const graph::DistributedGraph dg(g,
                                   graph::hash_partition(g.num_vertices(), 2));
  std::vector<std::uint64_t> out;
  const RunStats s = run_tcp<algo::PageRankCombined>(
      dg, 2, out,
      [](const algo::PRVertex& v) {
        return std::bit_cast<std::uint64_t>(v.value().rank);
      },
      pin<algo::PageRankCombined>(kPipeModes[0],
                                  [](algo::PageRankCombined& w) {
                                    w.iterations = 5;
                                  }));
  EXPECT_EQ(s.pipelined_rounds, 0u);
  EXPECT_EQ(s.overlap_seconds, 0.0);
  EXPECT_EQ(s.chunks_sent, 0u);
  EXPECT_EQ(s.chunks_received, 0u);
  constexpr double kEps = 1e-3;
  EXPECT_LE(s.serialize_seconds + s.exchange_seconds + s.deliver_seconds,
            s.comm_seconds + kEps);
}

TEST(PipelineStats, PipelinedRoundsReportOverlapAndChunks) {
  // Message-heavy on purpose: each superstep ships hundreds of KB, so the
  // time genuinely hidden by streaming (delivery of early channels +
  // serialize of later ones under an active wire) dwarfs the per-round
  // collective-vote overhead that also sits inside the comm wall.
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 13;
  opts.num_edges = 1u << 16;
  opts.seed = 42;
  const graph::Graph g = graph::rmat(opts);
  const graph::DistributedGraph dg(g,
                                   graph::hash_partition(g.num_vertices(), 2));
  std::vector<std::uint64_t> out;
  const RunStats s = run_tcp<algo::PageRankCombined>(
      dg, 2, out,
      [](const algo::PRVertex& v) {
        return std::bit_cast<std::uint64_t>(v.value().rank);
      },
      pin<algo::PageRankCombined>(PipeMode{true, 1, 1},
                                  [](algo::PageRankCombined& w) {
                                    w.iterations = 8;
                                  }));
  ASSERT_GT(s.pipelined_rounds, 0u);
  EXPECT_LE(s.pipelined_rounds, s.comm_rounds);
  EXPECT_GT(s.chunks_sent, 0u);
  EXPECT_EQ(s.chunks_sent, s.chunks_received);
  // Per-superstep chunk counters sum to the run totals (sent + received,
  // merged element-wise across the team like the totals themselves).
  std::uint64_t per_step = 0;
  for (const std::uint64_t c : s.chunks_per_superstep) per_step += c;
  EXPECT_EQ(per_step, s.chunks_sent + s.chunks_received);
  // In pipelined mode exchange_seconds is the wire-active span, which
  // overlaps serialize and deliver: the phase sum exceeds the comm wall
  // by exactly the hidden time overlap_seconds reports. How much time is
  // hidden depends on real scheduling (on a loaded single-core host it
  // can legitimately round to zero), so positivity is asserted
  // deterministically at the exchange layer — see
  // PipelineExchange.WireSpanCoversSerializeOfLaterChannels — and here we
  // pin the accounting invariants that must hold for any measured value.
  EXPECT_GE(s.overlap_seconds, 0.0);
  constexpr double kEps = 1e-3;
  EXPECT_LE(s.serialize_seconds + s.exchange_seconds + s.deliver_seconds,
            s.comm_seconds + s.overlap_seconds + kEps);
}

}  // namespace
