// Tests for the transport layer (DESIGN.md section 7): the
// PGCH_SIM_NET_MBPS throttle of the in-process backend, the TCP backend's
// collectives and data exchange over real loopback sockets, distributed
// SSSP/PageRank/WCC runs whose results and per-channel byte counts must
// be identical to the in-process backend at pinned thread counts,
// frame-mismatch detection across a socket, and the RunStats wire
// round-trip the multi-process stats fold rides on.

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/blogel_wcc.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/pp_simple.hpp"
#include "algorithms/runner.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "core/pregel_channel.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "runtime/exchange.hpp"
#include "runtime/tcp_transport.hpp"
#include "runtime/team.hpp"
#include "runtime/transport.hpp"
#include "tcp_mesh.hpp"

namespace {

using namespace pregel;
using pregel::runtime::Buffer;
using pregel::runtime::ChannelFrame;
using pregel::runtime::Exchange;
using pregel::runtime::FrameMismatchError;
using pregel::runtime::InProcessTransport;
using pregel::runtime::RunStats;
using pregel::runtime::TcpEndpoint;
using pregel::runtime::TcpTransport;
using pregel::runtime::WorkerTeam;

double elapsed_seconds(const std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ------------------------------------------- simulated network throttle --

TEST(SimulatedNetwork, ParsesMbpsEnvironmentValues) {
  EXPECT_EQ(runtime::parse_sim_net_mbps(nullptr), 0.0);
  EXPECT_EQ(runtime::parse_sim_net_mbps("0"), 0.0);
  EXPECT_EQ(runtime::parse_sim_net_mbps("-5"), 0.0);
  EXPECT_EQ(runtime::parse_sim_net_mbps(""), 0.0);
  for (const char* bad : {"not a number", "90MB", "inf", "nan"}) {
    try {
      runtime::parse_sim_net_mbps(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("PGCH_SIM_NET_MBPS"),
                std::string::npos);
    }
  }
  EXPECT_DOUBLE_EQ(runtime::parse_sim_net_mbps("90"), 90.0 * 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(runtime::parse_sim_net_mbps("0.5"), 0.5 * 1024.0 * 1024.0);
}

TEST(SimulatedNetwork, ExchangeBlocksForBottleneckTransitTime) {
  constexpr int kW = 2;
  InProcessTransport transport(kW);
  // 10 MB/s link; 2 MB crossing it must take at least 0.2 s.
  transport.set_simulated_bandwidth(10.0 * 1024.0 * 1024.0);
  Exchange ex(transport);
  constexpr std::size_t kPayload = 2u * 1024u * 1024u;
  const std::vector<std::uint8_t> blob(kPayload, 0xAB);

  const auto t0 = std::chrono::steady_clock::now();
  WorkerTeam::run(kW, [&](int rank) {
    if (rank == 0) ex.outbox(0, 1).write_bytes(blob.data(), blob.size());
    ex.exchange(rank);
  });
  // sleep_for guarantees at least the requested transit time.
  EXPECT_GE(elapsed_seconds(t0), 0.15);
  EXPECT_EQ(ex.total_bytes(), kPayload);
}

TEST(SimulatedNetwork, RankLocalTrafficIsFree) {
  constexpr int kW = 2;
  InProcessTransport transport(kW);
  transport.set_simulated_bandwidth(10.0 * 1024.0 * 1024.0);
  Exchange ex(transport);
  constexpr std::size_t kPayload = 2u * 1024u * 1024u;
  const std::vector<std::uint8_t> blob(kPayload, 0xCD);

  const auto t0 = std::chrono::steady_clock::now();
  WorkerTeam::run(kW, [&](int rank) {
    // Diagonal-only traffic: never crosses the simulated network.
    ex.outbox(rank, rank).write_bytes(blob.data(), blob.size());
    ex.exchange(rank);
  });
  EXPECT_LT(elapsed_seconds(t0), 0.15);
}

TEST(LaunchConfig, EndpointParsingCoversHostPortAndIpv6Forms) {
  core::LaunchConfig cfg;
  cfg.port_base = 29500;
  cfg.hosts = {"10.0.0.1", "10.0.0.2:7000", "::1", "[fe80::2]:7100", ""};
  EXPECT_EQ(cfg.endpoint_of(0).host, "10.0.0.1");
  EXPECT_EQ(cfg.endpoint_of(0).port, 29500);
  EXPECT_EQ(cfg.endpoint_of(1).host, "10.0.0.2");
  EXPECT_EQ(cfg.endpoint_of(1).port, 7000);
  EXPECT_EQ(cfg.endpoint_of(2).host, "::1");  // bare IPv6 literal: all host
  EXPECT_EQ(cfg.endpoint_of(2).port, 29502);
  EXPECT_EQ(cfg.endpoint_of(3).host, "fe80::2");
  EXPECT_EQ(cfg.endpoint_of(3).port, 7100);
  EXPECT_EQ(cfg.endpoint_of(4).host, "127.0.0.1");  // empty entry: default
  EXPECT_EQ(cfg.endpoint_of(4).port, 29504);
  EXPECT_EQ(cfg.endpoint_of(7).host, "127.0.0.1");  // past the list
  EXPECT_EQ(cfg.endpoint_of(7).port, 29507);
  cfg.hosts = {"[fe80::2"};
  EXPECT_THROW(cfg.endpoint_of(0), std::invalid_argument);
  cfg.hosts = {"[fe80::2]7100"};
  EXPECT_THROW(cfg.endpoint_of(0), std::invalid_argument);
  cfg.hosts = {"h:65535"};
  EXPECT_EQ(cfg.endpoint_of(0).port, 65535);
  // A port that is not a whole number in 1..65535 throws naming the
  // variable; it never becomes port 0 or wraps to another port.
  for (const char* bad : {"h:abc", "h:", "h:70000", "h:0", "h:-1", "h:80x",
                          "[fe80::2]:", "[fe80::2]:99999"}) {
    cfg.hosts = {bad};
    try {
      (void)cfg.endpoint_of(0);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("PGCH_HOSTS"), std::string::npos)
          << bad << ": " << e.what();
    }
  }
}

TEST(InProcessTransport, GatherAndBroadcastCollectives) {
  constexpr int kW = 3;
  InProcessTransport transport(kW);
  WorkerTeam::run(kW, [&](int rank) {
    Buffer mine;
    mine.write<std::uint32_t>(static_cast<std::uint32_t>(50 + rank));
    auto blobs = transport.gather_to_root(rank, mine);
    Buffer agreed;
    if (rank == 0) {
      ASSERT_EQ(blobs.size(), static_cast<std::size_t>(kW));
      for (int r = 0; r < kW; ++r) {
        EXPECT_EQ(blobs[static_cast<std::size_t>(r)].read<std::uint32_t>(),
                  static_cast<std::uint32_t>(50 + r));
      }
      agreed.write<std::uint32_t>(99);
    } else {
      EXPECT_TRUE(blobs.empty());
    }
    transport.broadcast_from_root(rank, &agreed);
    EXPECT_EQ(agreed.read<std::uint32_t>(), 99u);
    EXPECT_EQ(transport.allreduce_sum(rank, 2), 6u);
    EXPECT_TRUE(transport.vote_any(rank, rank == 2));
    EXPECT_FALSE(transport.vote_any(rank, false));
  });
}

// ------------------------------------------------------- TCP mesh setup --

using pregel::testing::make_mesh;  // tests/tcp_mesh.hpp (EADDRINUSE retry)

TEST(TcpTransport, CollectivesAcrossLoopbackSockets) {
  for (const int world : {2, 4}) {
    auto mesh = make_mesh(world);
    std::vector<std::uint64_t> ors(static_cast<std::size_t>(world));
    std::vector<std::uint64_t> sums(static_cast<std::size_t>(world));
    WorkerTeam::run(world, [&](int rank) {
      TcpTransport& t = *mesh[static_cast<std::size_t>(rank)];
      t.barrier(rank);
      ors[static_cast<std::size_t>(rank)] =
          t.allreduce_or(rank, std::uint64_t{1} << rank);
      sums[static_cast<std::size_t>(rank)] =
          t.allreduce_sum(rank, static_cast<std::uint64_t>(rank + 1));
      // Gather + broadcast: everyone learns rank 0's blob.
      Buffer mine;
      mine.write<std::uint32_t>(static_cast<std::uint32_t>(100 + rank));
      auto blobs = t.gather_to_root(rank, mine);
      Buffer agreed;
      if (rank == 0) {
        EXPECT_EQ(blobs.size(), static_cast<std::size_t>(world));
        for (int r = 0; r < world; ++r) {
          EXPECT_EQ(blobs[static_cast<std::size_t>(r)].read<std::uint32_t>(),
                    static_cast<std::uint32_t>(100 + r));
        }
        agreed.write<std::uint32_t>(777);
      } else {
        EXPECT_TRUE(blobs.empty());
      }
      t.broadcast_from_root(rank, &agreed);
      EXPECT_EQ(agreed.read<std::uint32_t>(), 777u);
    });
    const auto all_bits = (std::uint64_t{1} << world) - 1;
    const auto rank_sum =
        static_cast<std::uint64_t>(world * (world + 1) / 2);
    for (int r = 0; r < world; ++r) {
      EXPECT_EQ(ors[static_cast<std::size_t>(r)], all_bits);
      EXPECT_EQ(sums[static_cast<std::size_t>(r)], rank_sum);
    }
  }
}

TEST(TcpTransport, FramedExchangeDeliversAcrossSockets) {
  constexpr int kW = 2;
  auto mesh = make_mesh(kW);
  std::vector<std::uint64_t> got(kW * kW, 0);
  WorkerTeam::run(kW, [&](int rank) {
    Exchange ex(*mesh[static_cast<std::size_t>(rank)]);
    ex.begin_frames(rank, 0);
    for (int to = 0; to < kW; ++to) {
      ex.outbox(rank, to).write<std::uint64_t>(
          static_cast<std::uint64_t>(rank * 10 + to));
    }
    ex.end_frames(rank, 0);
    ex.exchange(rank);
    ex.open_frames(rank, 0, "c0");
    for (int from = 0; from < kW; ++from) {
      got[static_cast<std::size_t>(rank * kW + from)] =
          ex.inbox(rank, from).read<std::uint64_t>();
    }
    ex.close_frames(rank, 0, "c0");
    // Each process's exchange accounts its own row only.
    EXPECT_EQ(ex.sent_bytes(rank),
              kW * sizeof(std::uint64_t) + sizeof(ChannelFrame));
  });
  for (int rank = 0; rank < kW; ++rank) {
    for (int from = 0; from < kW; ++from) {
      EXPECT_EQ(got[static_cast<std::size_t>(rank * kW + from)],
                static_cast<std::uint64_t>(from * 10 + rank));
    }
  }
}

TEST(TcpTransport, TruncatedStreamFiresFrameMismatchAcrossTheSocket) {
  constexpr int kW = 2;
  auto mesh = make_mesh(kW);
  std::vector<int> mismatches(kW, 0);
  WorkerTeam::run(kW, [&](int rank) {
    Exchange ex(*mesh[static_cast<std::size_t>(rank)]);
    // Nobody writes a frame; the streams arrive truncated (empty) where a
    // header is expected.
    ex.exchange(rank);
    try {
      ex.open_frames(rank, 0, "probe");
    } catch (const FrameMismatchError&) {
      mismatches[static_cast<std::size_t>(rank)] = 1;
    }
  });
  for (const int m : mismatches) EXPECT_EQ(m, 1);
}

TEST(TcpTransport, WrongChannelFrameFiresFrameMismatchAcrossTheSocket) {
  constexpr int kW = 2;
  auto mesh = make_mesh(kW);
  std::vector<int> mismatches(kW, 0);
  WorkerTeam::run(kW, [&](int rank) {
    Exchange ex(*mesh[static_cast<std::size_t>(rank)]);
    ex.begin_frames(rank, 3);
    for (int to = 0; to < kW; ++to) {
      ex.outbox(rank, to).write<std::uint32_t>(42);
    }
    ex.end_frames(rank, 3);
    ex.exchange(rank);
    try {
      ex.open_frames(rank, 5, "other");  // channel 3's frame is there
    } catch (const FrameMismatchError&) {
      mismatches[static_cast<std::size_t>(rank)] = 1;
    }
  });
  for (const int m : mismatches) EXPECT_EQ(m, 1);
}

// ------------------------------- distributed runs match the in-process --

/// Run WorkerT over `dg` as `world` TCP "processes" (threads with private
/// transports), collecting per-vertex results by global id, and return
/// the team-global stats (identical on every rank; rank 0's is returned).
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
  // The control-lane fold must hand every rank the same global record.
  for (int r = 1; r < world; ++r) {
    EXPECT_EQ(merged[static_cast<std::size_t>(r)].message_bytes,
              merged[0].message_bytes);
    EXPECT_EQ(merged[static_cast<std::size_t>(r)].supersteps,
              merged[0].supersteps);
  }
  return merged[0];
}

void expect_identical_traffic(const RunStats& tcp, const RunStats& inproc) {
  EXPECT_EQ(tcp.supersteps, inproc.supersteps);
  EXPECT_EQ(tcp.comm_rounds, inproc.comm_rounds);
  EXPECT_EQ(tcp.message_bytes, inproc.message_bytes);
  EXPECT_EQ(tcp.frame_bytes, inproc.frame_bytes);
  EXPECT_EQ(tcp.bytes_by_channel, inproc.bytes_by_channel);
  EXPECT_EQ(tcp.active_per_superstep, inproc.active_per_superstep);
  EXPECT_EQ(tcp.bytes_per_superstep, inproc.bytes_per_superstep);
}

/// The pinned thread counts every TCP parity run covers: everything on one
/// slot, then the pool at an odd and an even slot count.
constexpr int kThreadCounts[] = {1, 3, 4};

/// Pin the thread count so the parity runs do not depend on the PGCH_*
/// variables a CI leg sets, then apply the algorithm's own settings.
template <typename WorkerT>
std::function<void(WorkerT&)> pinned(int threads,
                                     std::function<void(WorkerT&)> extra) {
  return [threads, extra](WorkerT& w) {
    w.set_compute_threads(threads);
    if (extra) extra(w);
  };
}

/// Run WorkerT over `g` at 2 and 4 ranks. The oracle per world size is
/// the in-process run on one slot; the TCP run at every thread count must
/// reproduce its vertex results exactly (callers hand floats as bit
/// patterns) and its traffic.
template <typename WorkerT, typename OutT, typename Extract>
void expect_tcp_parity(const graph::Graph& g, Extract extract,
                       std::function<void(WorkerT&)> extra) {
  for (const int world : {2, 4}) {
    const graph::DistributedGraph dg(
        g, graph::hash_partition(g.num_vertices(), world));
    std::vector<OutT> want;
    const RunStats oracle = algo::run_collect<WorkerT>(
        dg, want, extract, pinned<WorkerT>(kThreadCounts[0], extra));
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE("world=" + std::to_string(world) +
                   " threads=" + std::to_string(threads));
      std::vector<OutT> got;
      const RunStats tcp = run_tcp<WorkerT>(dg, world, got, extract,
                                            pinned<WorkerT>(threads, extra));
      EXPECT_EQ(got, want);
      expect_identical_traffic(tcp, oracle);
    }
  }
}

graph::Graph parity_rmat(bool symmetric) {
  graph::RmatOptions opts;
  opts.num_vertices = 1u << 12;
  opts.num_edges = 1u << 15;
  opts.seed = 42;
  graph::Graph g = graph::rmat(opts);
  if (symmetric) g = g.symmetrized();
  return g;
}

std::uint64_t pagerank_bits(const algo::PRVertex& v) {
  return std::bit_cast<std::uint64_t>(v.value().rank);
}

TEST(TcpParity, SsspMatchesInProcessBackend) {
  expect_tcp_parity<algo::Sssp, std::uint64_t>(
      graph::grid_road(32, 32, 300, 7),
      [](const algo::SsspVertex& v) { return v.value().dist; },
      [](algo::Sssp& w) { w.source = 0; });
}

TEST(TcpParity, PageRankMatchesInProcessBackendBitwise) {
  expect_tcp_parity<algo::PageRankCombined, std::uint64_t>(
      parity_rmat(false), pagerank_bits,
      [](algo::PageRankCombined& w) { w.iterations = 5; });
}

TEST(TcpParity, WccMatchesInProcessBackend) {
  expect_tcp_parity<algo::WccBasic, graph::VertexId>(
      parity_rmat(true),
      [](const algo::WccVertex& v) { return v.value().label; }, {});
}

TEST(TcpParity, BaselineEnginesMatchInProcessBackend) {
  expect_tcp_parity<algo::PPPageRank, std::uint64_t>(
      parity_rmat(false), pagerank_bits,
      [](algo::PPPageRank& w) { w.iterations = 5; });
  expect_tcp_parity<algo::BlogelWcc, graph::VertexId>(
      parity_rmat(true),
      [](const algo::WccVertex& v) { return v.value().label; }, {});
}

TEST(TcpParity, BulkPhaseSumStaysInsideCommWall) {
  // Serialize, exchange and deliver are disjoint sub-intervals of the comm
  // wall (which additionally covers the votes), so their sum cannot
  // exceed it.
  const graph::Graph g = parity_rmat(false);
  const graph::DistributedGraph dg(g,
                                   graph::hash_partition(g.num_vertices(), 2));
  std::vector<std::uint64_t> out;
  const RunStats s = run_tcp<algo::PageRankCombined>(
      dg, 2, out, pagerank_bits,
      pinned<algo::PageRankCombined>(
          kThreadCounts[0],
          [](algo::PageRankCombined& w) { w.iterations = 5; }));
  constexpr double kEps = 1e-3;
  EXPECT_LE(s.serialize_seconds + s.exchange_seconds + s.deliver_seconds,
            s.comm_seconds + kEps);
}

TEST(TcpParity, AllGatherResultsGivesEveryRankTheGlobalArray) {
  constexpr int kW = 2;
  const graph::Graph g = graph::grid_road(16, 16, 100, 3);
  const graph::DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), kW));
  const auto configure = [](algo::Sssp& w) { w.source = 0; };

  std::vector<std::uint64_t> expect;
  algo::run_collect<algo::Sssp>(
      dg, expect, [](const algo::SsspVertex& v) { return v.value().dist; },
      configure);

  auto mesh = make_mesh(kW);
  std::vector<std::vector<std::uint64_t>> per_rank(kW);
  WorkerTeam::run(kW, [&](int rank) {
    // Each "process" collects only its slice...
    auto& out = per_rank[static_cast<std::size_t>(rank)];
    out.assign(dg.num_vertices(), 0);
    core::launch_distributed<algo::Sssp>(
        dg, *mesh[static_cast<std::size_t>(rank)], rank, configure,
        [&](const algo::Sssp& w, int) {
          w.for_each_vertex(
              [&](const auto& v) { out[v.id()] = v.value().dist; });
        });
    // ...then the all-gather completes everyone's array.
    algo::allgather_results(*mesh[static_cast<std::size_t>(rank)], rank, dg,
                            out);
  });
  for (int r = 0; r < kW; ++r) {
    EXPECT_EQ(per_rank[static_cast<std::size_t>(r)], expect);
  }
}

// ------------------------------------------------- RunStats wire format --

TEST(RunStatsWire, SerializeDeserializeRoundTrips) {
  RunStats s;
  s.seconds = 1.25;
  s.compute_seconds = 0.75;
  s.comm_seconds = 0.5;
  s.serialize_seconds = 0.2;
  s.exchange_seconds = 0.15;
  s.deliver_seconds = 0.1;
  s.supersteps = 7;
  s.comm_rounds = 12;
  s.message_bytes = 123456;
  s.message_batches = 34;
  s.frame_bytes = 512;
  s.bytes_by_channel["dist"] = 1000;
  s.bytes_by_channel["agg"] = 24;
  s.active_per_superstep = {10, 8, 3};
  s.active_vertex_total = 21;
  s.bytes_per_superstep = {400, 300, 100};

  Buffer wire;
  s.serialize(wire);
  const RunStats back = RunStats::deserialize(wire);
  EXPECT_TRUE(wire.exhausted());
  EXPECT_EQ(back.seconds, s.seconds);
  EXPECT_EQ(back.compute_seconds, s.compute_seconds);
  EXPECT_EQ(back.comm_seconds, s.comm_seconds);
  EXPECT_EQ(back.serialize_seconds, s.serialize_seconds);
  EXPECT_EQ(back.exchange_seconds, s.exchange_seconds);
  EXPECT_EQ(back.deliver_seconds, s.deliver_seconds);
  EXPECT_EQ(back.supersteps, s.supersteps);
  EXPECT_EQ(back.comm_rounds, s.comm_rounds);
  EXPECT_EQ(back.message_bytes, s.message_bytes);
  EXPECT_EQ(back.message_batches, s.message_batches);
  EXPECT_EQ(back.frame_bytes, s.frame_bytes);
  EXPECT_EQ(back.bytes_by_channel, s.bytes_by_channel);
  EXPECT_EQ(back.active_per_superstep, s.active_per_superstep);
  EXPECT_EQ(back.active_vertex_total, s.active_vertex_total);
  EXPECT_EQ(back.bytes_per_superstep, s.bytes_per_superstep);
}

TEST(RunStatsWire, DetailedReportsComputeCommunicationSplit) {
  RunStats s;
  s.compute_seconds = 0.5;
  s.comm_seconds = 0.25;
  const std::string report = s.detailed();
  EXPECT_NE(report.find("compute"), std::string::npos);
  EXPECT_NE(report.find("communicate"), std::string::npos);
}

// -------------------------------------------------- localized rank views --

TEST(LocalizedView, ServesOwnSliceAndRefusesOthers) {
  const graph::Graph g = graph::rmat({.num_vertices = 256,
                                      .num_edges = 1024,
                                      .seed = 11});
  const graph::DistributedGraph dg(
      g, graph::hash_partition(g.num_vertices(), 3));
  const graph::DistributedGraph local = dg.localized(1);
  EXPECT_TRUE(local.is_localized());
  EXPECT_EQ(local.local_rank(), 1);
  EXPECT_EQ(local.num_vertices(), dg.num_vertices());
  EXPECT_EQ(local.num_edges(), dg.num_edges());
  // The slice serves identical adjacency...
  for (std::uint32_t lidx = 0; lidx < dg.num_local(1); ++lidx) {
    const auto shared_view = dg.out(1, lidx);
    const auto sliced = local.out(1, lidx);
    ASSERT_EQ(sliced.size(), shared_view.size());
    for (std::size_t i = 0; i < sliced.size(); ++i) {
      EXPECT_EQ(sliced[i].dst, shared_view[i].dst);
      EXPECT_EQ(sliced[i].weight, shared_view[i].weight);
    }
  }
  // ...but another rank's adjacency, and the shared CSR, are gone.
  EXPECT_THROW(local.out(0, 0), std::logic_error);
  EXPECT_THROW(local.csr(), std::logic_error);
  EXPECT_THROW(local.localized(2), std::logic_error);
  // Re-localizing to the same rank is a no-op copy.
  EXPECT_EQ(local.localized(1).local_rank(), 1);
}

}  // namespace
