// bench_suite: the compiled half of the benchmark (perfbench/run.py is
// the other half, and perfbench/README.md describes both).
//
//   bench_suite prepare --workload W --seed N --scale S --dir D
//       Generate the workload's graph, write it to D/graph.snap (format v3
//       snapshot) and the oracle's output to D/oracle.bin.
//
//   bench_suite run --workload W --seed N --scale S --dir D --out F
//                   (--seconds T | --jobs J) --trace 0|1
//                   [--trace-file P] [--source H]
//       Set up (load the snapshot, partition, build the distributed view),
//       run one uncounted warm-up job, then run jobs back to back (a
//       closed loop, one job at a time) until T seconds have passed,
//       setting up again after each, and check every job's output
//       against the oracle. Writes one JSON record to F. With --trace 1
//       every other job runs over the tracing Transport decorator, and
//       the per-layer metrics come from those jobs.
//
// TCP workloads run under `pgch_launch -n 4 --transport tcp`: every rank
// process runs this program, and rank 0 writes the record.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "algorithms/runner.hpp"
#include "algorithms/scc.hpp"
#include "algorithms/sv.hpp"
#include "core/launch_config.hpp"
#include "datasets.hpp"
#include "graph/distributed.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "runtime/chunk.hpp"
#include "runtime/compute_pool.hpp"
#include "runtime/tcp_transport.hpp"
#include "trace.hpp"

extern char** environ;

namespace {

using namespace perfbench;
namespace core = pregel::core;
namespace rt = pregel::runtime;
using pregel::graph::DistributedGraph;

/// Minimum set-up repetitions (one runs after every job); setup_s is
/// their median.
constexpr std::size_t kSetupReps = 9;
/// Single-thread CSR sweeps behind graph.scan_medges_per_s.
constexpr int kScanReps = 5;
/// The paper's 750 Mbps links, as the in-process transport models them
/// (PGCH_SIM_NET_MBPS=90): runtime.net_model_s is the time the
/// bottleneck-link formula charges at this rate.
constexpr double kModelLinkBytesPerSec = 90.0 * 1024.0 * 1024.0;
/// Span capacity of a traced run; later spans are counted as dropped.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;
/// Traced jobs whose spans are recorded (~20k spans each on scc-wiki).
constexpr int kSpannedJobs = 4;
/// PageRank outputs must match the oracle within this absolute error.
constexpr double kPageRankTolerance = 1e-10;

/// Checksums of the warm and scan sweeps land here, so the sweeps are
/// not optimized away.
volatile std::uint64_t g_sink = 0;

// ---- command line -----------------------------------------------------------

struct Options {
  std::string command;
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  int shift = 0;
  std::string dir;
  std::string out;
  std::string trace_file;
  std::string source = "unknown";  ///< hash of the measured sources
  double seconds = 10.0;
  int jobs = 0;  ///< > 0: exactly this many timed jobs, ignoring seconds
  bool trace = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "bench_suite: %s\n"
               "usage: bench_suite prepare --workload W --seed N --scale S "
               "--dir D\n"
               "       bench_suite run --workload W --seed N --scale S --dir D "
               "--out F\n"
               "                       (--seconds T | --jobs J) --trace 0|1 "
               "[--trace-file P] [--source H]\n",
               error.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  if (argc < 2) usage("missing subcommand");
  Options o;
  o.command = argv[1];
  if (o.command != "prepare" && o.command != "run") {
    usage("unknown subcommand '" + o.command + "'");
  }
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        o.workload = &find_workload(value);
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--scale") {
        o.shift = std::stoi(value);
      } else if (key == "--dir") {
        o.dir = value;
      } else if (key == "--out") {
        o.out = value;
      } else if (key == "--trace-file") {
        o.trace_file = value;
      } else if (key == "--source") {
        o.source = value;
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--jobs") {
        o.jobs = std::stoi(value);
      } else if (key == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error& e) {
      usage("bad value for " + key + ": " + e.what());
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  if (o.dir.empty()) usage("--dir is required");
  if (o.shift < -8 || o.shift > 2) usage("--scale must be in -8..2");
  if (o.command == "run" && o.out.empty()) usage("--out is required");
  if (o.seconds <= 0.0 && o.jobs <= 0) usage("--seconds must be > 0");
  return o;
}

/// The benchmark measures the default configuration only. Launch
/// variables that pgch_launch sets are allowed; every other PGCH_* knob
/// would silently change what is measured, so it is refused by name.
/// Must run before any transport exists: PGCH_SIM_NET_MBPS is read once.
void guard_configuration() {
  static const std::set<std::string> kLaunchVars = {
      "PGCH_TRANSPORT", "PGCH_RANK", "PGCH_WORLD", "PGCH_PORT_BASE",
      "PGCH_HOSTS"};
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry(*e);
    if (!entry.starts_with("PGCH_")) continue;
    const std::string name(entry.substr(0, entry.find('=')));
    if (kLaunchVars.contains(name)) continue;
    std::fprintf(stderr,
                 "bench_suite: %s is set; the benchmark measures the default "
                 "configuration, so unset it\n",
                 name.c_str());
    std::exit(2);
  }
  // Simulated-link sleep is off: the link is modelled, not slept through.
  ::setenv("PGCH_SIM_NET_MBPS", "0", 1);
}

// ---- statistics ---------------------------------------------------------------

/// Median, quartiles (Python's statistics.quantiles(n=4), 'exclusive'),
/// extremes and count of a sample.
struct Summary {
  double median = 0.0, q1 = 0.0, q3 = 0.0, min = 0.0, max = 0.0;
  std::size_t n = 0;
};

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.min = v.front();
  s.max = v.back();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

/// Nearest-rank percentile (p in (0, 100]) of a sample; 0 when empty.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The record's metrics, in insertion order.
class Metrics {
 public:
  void add(const std::string& name, const std::string& unit,
           const Summary& s) {
    entries_.push_back({name, unit, s});
  }
  void add(const std::string& name, const std::string& unit, double value) {
    add(name, unit, summarize({value}));
  }
  /// Median over per-job values.
  void add(const std::string& name, const std::string& unit,
           const std::vector<double>& per_job) {
    add(name, unit, summarize(per_job));
  }

  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      os << (i == 0 ? "\n" : ",\n") << "    \"" << e.name << "\": {\"value\": "
         << e.s.median << ", \"unit\": \"" << e.unit << "\", \"q1\": " << e.s.q1
         << ", \"q3\": " << e.s.q3 << ", \"min\": " << e.s.min
         << ", \"max\": " << e.s.max << ", \"n\": " << e.s.n << "}";
    }
    os << "\n  }";
    return os.str();
  }

 private:
  struct Entry {
    std::string name, unit;
    Summary s;
  };
  std::vector<Entry> entries_;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---- prepare --------------------------------------------------------------------

/// Oracle file: 8-byte element size, 8-byte count, raw elements.
void write_oracle(const std::string& path, std::size_t elem_size,
                  const std::vector<unsigned char>& bytes) {
  std::ofstream f(path, std::ios::binary);
  const std::uint64_t header[2] = {elem_size, bytes.size() / elem_size};
  f.write(reinterpret_cast<const char*>(header), sizeof(header));
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("cannot write " + path);
}

template <typename T>
std::vector<T> read_oracle(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::uint64_t header[2] = {0, 0};
  f.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!f || header[0] != sizeof(T) || header[1] > (std::uint64_t{1} << 32)) {
    throw std::runtime_error(path + ": not an oracle file for this workload");
  }
  std::vector<T> out(header[1]);
  f.read(reinterpret_cast<char*>(out.data()),
         static_cast<std::streamsize>(out.size() * sizeof(T)));
  if (!f) throw std::runtime_error(path + ": truncated oracle file");
  return out;
}

int prepare(const Options& o) {
  const auto t0 = Clock::now();
  const Graph g = make_graph(*o.workload, o.seed, o.shift);
  const auto t1 = Clock::now();
  const std::vector<unsigned char> oracle = oracle_bytes(*o.workload, g);
  const auto t2 = Clock::now();
  const CsrGraph csr = engine_graph(*o.workload, g);
  pregel::graph::save_binary(csr, o.dir + "/graph.snap");
  write_oracle(o.dir + "/oracle.bin",
               o.workload->program == Program::kPageRank ? sizeof(double)
                                                         : sizeof(VertexId),
               oracle);
  std::fprintf(stderr,
               "[prepare] %s seed %llu scale %d: %u vertices, %llu edges "
               "(generate %.2f s, oracle %.2f s, snapshot %.2f s)\n",
               o.workload->name, static_cast<unsigned long long>(o.seed),
               o.shift, csr.num_vertices(),
               static_cast<unsigned long long>(csr.num_edges()),
               seconds_between(t0, t1), seconds_between(t1, t2),
               seconds_between(t2, Clock::now()));
  return 0;
}

// ---- one job ----------------------------------------------------------------------

/// What one job produced.
struct JobRecord {
  double job_s = 0.0;
  rt::RunStats stats;
  /// Traced jobs: every rank's transport calls (a TCP process holds only
  /// its own rank's until gather_calls()); empty when untraced.
  std::vector<RankCalls> calls;
  double transport_setup_s = 0.0;  ///< traced in-process jobs
};

/// Where jobs run: the in-process team, or this process's rank of a TCP
/// team (`tcp` is set once the mesh is connected).
struct Team {
  int workers = 0;
  bool distributed = false;
  int rank = 0;
  rt::TcpTransport* tcp = nullptr;
};

template <typename WorkerT, typename OutT, typename Extract>
JobRecord run_job(const Team& team, const DistributedGraph& dg,
                  const Extract& extract, std::vector<OutT>& out,
                  bool traced, SpanBuffer* spans, std::int32_t job) {
  out.assign(dg.num_vertices(), OutT{});
  JobRecord rec;
  const std::function<void(WorkerT&, int)> collect =
      [&](const WorkerT& w, int rank) {
        ScopedSpan span(spans, "collect", "core", rank, job);
        w.for_each_vertex([&](const auto& v) { out[v.id()] = extract(v); });
      };

  if (team.tcp != nullptr) {
    // launch_distributed + the result all-gather, on the connected mesh.
    const auto t0 = Clock::now();
    if (traced) {
      TracingTransport transport(*team.tcp, spans, job);
      rec.stats = core::launch_distributed<WorkerT>(dg, transport, team.rank,
                                                    nullptr, collect);
      pregel::algo::allgather_results(transport, team.rank, dg, out);
      rec.calls.push_back(transport.calls(team.rank));
    } else {
      rec.stats = core::launch_distributed<WorkerT>(dg, *team.tcp, team.rank,
                                                    nullptr, collect);
      pregel::algo::allgather_results(*team.tcp, team.rank, dg, out);
    }
    rec.job_s = seconds_between(t0, Clock::now());
    return rec;
  }

  if (!traced) {
    const auto t0 = Clock::now();
    rec.stats = core::launch<WorkerT>(dg, core::LaunchConfig{}, nullptr,
                                      collect);
    rec.job_s = seconds_between(t0, Clock::now());
    return rec;
  }

  // core::launch's in-process body, with the ranks' transport wrapped.
  const auto t0 = Clock::now();
  rt::InProcessTransport inner(team.workers);
  TracingTransport transport(inner, spans, job);
  rt::Exchange exchange(transport);
  rec.transport_setup_s = seconds_between(t0, Clock::now());
  std::vector<rt::RunStats> per_rank(static_cast<std::size_t>(team.workers));
  rt::WorkerTeam::run(team.workers, [&](int rank) {
    per_rank[static_cast<std::size_t>(rank)] = core::detail::run_rank<WorkerT>(
        dg, exchange, transport, rank, nullptr, collect);
  });
  rec.stats = per_rank[0];
  for (int r = 1; r < team.workers; ++r) {
    rec.stats.merge_from(per_rank[static_cast<std::size_t>(r)]);
  }
  rec.job_s = seconds_between(t0, Clock::now());
  for (int r = 0; r < team.workers; ++r) rec.calls.push_back(transport.calls(r));
  return rec;
}

/// Under TCP, bring every rank's call record to rank 0 (outside the timed
/// job). In-process records already cover the team.
void gather_calls(const Team& team, JobRecord& rec) {
  if (team.tcp == nullptr) return;
  rt::Buffer mine;
  const RankCalls& c = rec.calls.front();
  mine.write(c.exchange_calls);
  mine.write(c.collective_calls);
  mine.write(c.blocked_s);
  mine.write(c.exchange_s);
  mine.write(c.remote_bytes);
  mine.write_vector(c.round_link_bytes);
  mine.write_vector(c.collective_us);
  mine.write_vector(c.round_ms);
  std::vector<rt::Buffer> all = team.tcp->gather_to_root(team.rank, mine);
  rec.calls.clear();
  for (rt::Buffer& b : all) {
    RankCalls r;
    r.exchange_calls = b.read<std::uint64_t>();
    r.collective_calls = b.read<std::uint64_t>();
    r.blocked_s = b.read<double>();
    r.exchange_s = b.read<double>();
    r.remote_bytes = b.read<std::uint64_t>();
    r.round_link_bytes = b.read_vector<std::uint64_t>();
    r.collective_us = b.read_vector<double>();
    r.round_ms = b.read_vector<double>();
    rec.calls.push_back(std::move(r));
  }
}

/// Seconds the bottleneck-link formula of InProcessTransport charges a
/// job at kModelLinkBytesPerSec: per exchange round, the largest number
/// of bytes any rank sent to or received from its peers.
double net_model_seconds(const std::vector<RankCalls>& calls) {
  std::size_t rounds = 0;
  for (const RankCalls& c : calls) {
    rounds = std::max(rounds, c.round_link_bytes.size());
  }
  double bytes = 0.0;
  for (std::size_t k = 0; k < rounds; ++k) {
    std::uint64_t worst = 0;
    for (const RankCalls& c : calls) {
      if (k < c.round_link_bytes.size()) {
        worst = std::max(worst, c.round_link_bytes[k]);
      }
    }
    bytes += static_cast<double>(worst);
  }
  return bytes / kModelLinkBytesPerSec;
}

std::uint64_t remote_bytes(const std::vector<RankCalls>& calls) {
  std::uint64_t sum = 0;
  for (const RankCalls& c : calls) sum += c.remote_bytes;
  return sum;
}

// ---- output checks ----------------------------------------------------------------

/// "" when `got` is a correct output of the workload's program.
template <typename OutT>
std::string check_output(Program program, const std::vector<OutT>& got,
                         const std::vector<OutT>& oracle) {
  if (got.size() != oracle.size()) return "output size differs from oracle";
  if constexpr (std::is_same_v<OutT, double>) {
    for (std::size_t v = 0; v < got.size(); ++v) {
      if (!(std::fabs(got[v] - oracle[v]) <= kPageRankTolerance)) {
        char diff[32];
        std::snprintf(diff, sizeof(diff), "%.3g", got[v] - oracle[v]);
        return "PageRank of vertex " + std::to_string(v) + " is off by " +
               diff;
      }
    }
  } else if (program == Program::kSv) {
    // S-V labels components by a root of its choosing: the partition
    // into components must equal the reference's.
    std::unordered_map<OutT, OutT> to_ref, from_ref;
    for (std::size_t v = 0; v < got.size(); ++v) {
      const auto [a, fresh_a] = to_ref.emplace(got[v], oracle[v]);
      const auto [b, fresh_b] = from_ref.emplace(oracle[v], got[v]);
      if (a->second != oracle[v] || b->second != got[v]) {
        return "component of vertex " + std::to_string(v) +
               " differs from connected_components";
      }
    }
  } else {
    for (std::size_t v = 0; v < got.size(); ++v) {
      if (got[v] != oracle[v]) {
        return "SCC label of vertex " + std::to_string(v) + " is " +
               std::to_string(got[v]) + ", oracle says " +
               std::to_string(oracle[v]);
      }
    }
  }
  return "";
}

template <typename OutT>
bool bitwise_equal(const std::vector<OutT>& a, const std::vector<OutT>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(OutT)) == 0;
}

// ---- set-up -------------------------------------------------------------------------

struct SetupTimes {
  std::vector<double> total, load, partition, dgraph;
};

/// Touch every adjacency page of the ranks this process serves, so the
/// first job is not charged the page-in of the mapped snapshot.
std::uint64_t warm(const DistributedGraph& dg, const Team& team) {
  std::uint64_t checksum = 0;
  for (int rank = 0; rank < dg.num_workers(); ++rank) {
    if (team.distributed && rank != team.rank) continue;
    for (std::uint32_t l = 0; l < dg.num_local(rank); ++l) {
      for (const VertexId d : dg.out(rank, l).targets()) checksum += d;
    }
  }
  return checksum;
}

/// One set-up: load -> partition -> distributed view -> warm pass.
/// `dg` (the view jobs run on) is released first, so only one mapping
/// of the snapshot is alive at a time.
void set_up(const Options& o, const Team& team, SetupTimes& times,
            SpanBuffer* spans, std::uint64_t& sink,
            std::unique_ptr<DistributedGraph>& dg) {
  dg.reset();
  ScopedSpan span(spans, "setup", "bench", kMainThread, -1);
  const auto t0 = Clock::now();
  auto csr = std::make_shared<const CsrGraph>(
      pregel::graph::load_any(o.dir + "/graph.snap"));
  const auto t1 = Clock::now();
  pregel::graph::Partition partition = pregel::graph::make_partition(
      *csr, team.workers, pregel::graph::PartitionKind::kHash);
  const auto t2 = Clock::now();
  dg = std::make_unique<DistributedGraph>(csr, std::move(partition));
  const auto t3 = Clock::now();
  sink += warm(*dg, team);
  const auto t4 = Clock::now();
  if (spans != nullptr) {
    spans->add("load_any", "graph", kMainThread, -1, t0, t1);
    spans->add("make_partition", "graph", kMainThread, -1, t1, t2);
    spans->add("DistributedGraph", "graph", kMainThread, -1, t2, t3);
    spans->add("warm", "bench", kMainThread, -1, t3, t4);
  }
  times.load.push_back(seconds_between(t0, t1));
  times.partition.push_back(seconds_between(t1, t2));
  times.dgraph.push_back(seconds_between(t2, t3));
  times.total.push_back(seconds_between(t0, t4));
}

/// Millions of edges per second of a single-thread sweep over
/// CsrGraph::neighbors, one value per sweep.
std::vector<double> scan_rates(const CsrGraph& g, std::uint64_t& sink) {
  std::vector<double> rates;
  for (int rep = 0; rep < kScanReps; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t sum = 0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (const VertexId v : g.neighbors(u)) sum += v;
    }
    const double s = seconds_between(t0, Clock::now());
    sink += sum;
    rates.push_back(static_cast<double>(g.num_edges()) / s / 1e6);
  }
  return rates;
}

// ---- the run ------------------------------------------------------------------------

/// Channel names of every workload's program: a per-layer metric each,
/// 0 on workloads whose program does not have the channel.
const std::vector<std::string>& all_channels() {
  static const std::vector<std::string> names = {
      "pr",  "sink",   "dd",     "nbr",      "merge", "changes",
      "cnt_in", "cnt_out", "labels", "activity", "alive"};
  return names;
}

/// Per-job values of the per-layer metrics, by name.
struct Series {
  std::string unit;
  std::vector<double> values;
};
using Layers = std::map<std::string, Series>;

/// The per-layer values of one traced job; the samples behind the
/// percentile metrics are pooled into `collective_us` and `round_ms`.
void add_job_layers(const JobRecord& rec, Layers& layers,
                    std::vector<double>& collective_us,
                    std::vector<double>& round_ms) {
  const auto add = [&](const std::string& name, const char* unit, double v) {
    Series& s = layers[name];
    s.unit = unit;
    s.values.push_back(v);
  };
  const rt::RunStats& s = rec.stats;
  const double bytes = static_cast<double>(s.message_bytes);
  add("core.loop_s", "s", s.seconds);
  add("core.launch_overhead_s", "s", rec.job_s - s.seconds);
  add("core.compute_s", "s", s.compute_seconds);
  add("core.compute_mvertices_per_s", "Mvertices/s",
      static_cast<double>(s.active_vertex_total) / s.compute_seconds / 1e6);
  add("core.serialize_s", "s", s.serialize_seconds);
  add("core.serialize_ns_per_byte", "ns/byte",
      s.serialize_seconds * 1e9 / bytes);
  add("core.exchange_s", "s", s.exchange_seconds);
  add("core.deliver_s", "s", s.deliver_seconds);
  add("core.deliver_ns_per_byte", "ns/byte", s.deliver_seconds * 1e9 / bytes);
  add("core.vote_s", "s",
      std::max(0.0, s.comm_seconds - s.serialize_seconds -
                        s.exchange_seconds - s.deliver_seconds));
  add("core.supersteps", "count", s.supersteps);
  add("core.comm_rounds", "count", static_cast<double>(s.comm_rounds));
  add("core.active_vertices", "count",
      static_cast<double>(s.active_vertex_total));
  add("core.frame_overhead", "ratio", static_cast<double>(s.frame_bytes) / bytes);
  add("core.rank_imbalance", "ratio", s.rank_imbalance());
  for (const std::string& ch : all_channels()) {
    const auto it = s.bytes_by_channel.find(ch);
    add("core.channel_bytes." + ch, "bytes",
        it == s.bytes_by_channel.end() ? 0.0 : static_cast<double>(it->second));
  }

  double blocked = 0.0, busy_max = 0.0, busy_sum = 0.0, exchange_s = 0.0;
  for (const RankCalls& c : rec.calls) {
    blocked += c.blocked_s;
    exchange_s += c.exchange_s;
    const double busy = rec.job_s - c.blocked_s;
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
    collective_us.insert(collective_us.end(), c.collective_us.begin(),
                         c.collective_us.end());
  }
  const RankCalls& root = rec.calls.front();
  round_ms.insert(round_ms.end(), root.round_ms.begin(), root.round_ms.end());
  const double ranks = static_cast<double>(rec.calls.size());
  const double remote = static_cast<double>(remote_bytes(rec.calls));
  add("runtime.exchange_calls", "count",
      static_cast<double>(root.exchange_calls));
  add("runtime.collective_calls", "count",
      static_cast<double>(root.collective_calls));
  add("runtime.blocked_s", "s", blocked / ranks);
  add("runtime.busy_imbalance", "ratio", busy_max / (busy_sum / ranks));
  add("runtime.remote_bytes", "bytes", remote);
  add("runtime.net_model_s", "s", net_model_seconds(rec.calls));
  add("runtime.wire_mb_per_s", "MiB/s",
      remote / exchange_s / (1024.0 * 1024.0));
  // In-process: building the transport; TCP runs replace it with the
  // mesh connect.
  add("runtime.connect_s", "s", rec.transport_setup_s);
}

/// Under TCP, bring every rank process's peak memory and spans to rank 0;
/// returns the largest peak. In-process, just this process's peak.
double gather_peers(const Team& team, SpanBuffer* spans) {
  double rss = peak_rss_mib();
  if (team.tcp == nullptr) return rss;
  rt::Buffer mine;
  mine.write(rss);
  mine.write<std::uint64_t>(spans ? spans->dropped() : 0);
  mine.write<std::uint64_t>(spans ? spans->size() : 0);
  for (std::size_t i = 0; spans && i < spans->size(); ++i) {
    const Span& s = (*spans)[i];
    mine.write_string(s.name);
    mine.write_string(s.cat);
    mine.write(s.start_ns);
    mine.write(s.dur_ns);
    mine.write(s.pid);
    mine.write(s.tid);
    mine.write(s.job);
  }
  std::vector<rt::Buffer> all = team.tcp->gather_to_root(team.rank, mine);
  for (std::size_t r = 1; r < all.size(); ++r) {
    rt::Buffer& b = all[r];
    rss = std::max(rss, b.read<double>());
    const auto dropped = b.read<std::uint64_t>();
    const auto n = b.read<std::uint64_t>();
    std::vector<Span> peer;
    for (std::uint64_t i = 0; i < n; ++i) {
      Span s;
      s.name = spans->intern(b.read_string());
      s.cat = spans->intern(b.read_string());
      s.start_ns = b.read<std::int64_t>();
      s.dur_ns = b.read<std::int64_t>();
      s.pid = b.read<std::int32_t>();
      s.tid = b.read<std::int32_t>();
      s.job = b.read<std::int32_t>();
      peer.push_back(s);
    }
    if (spans) spans->absorb(peer, dropped);
  }
  return rss;
}

template <typename WorkerT, typename OutT, typename Extract>
int run(const Options& o, Team team, const Extract& extract) {
  const bool root = team.rank == 0;
  std::unique_ptr<SpanBuffer> spans;
  if (o.trace) {
    spans = std::make_unique<SpanBuffer>(kSpanCapacity);
    spans->set_pid(team.rank);
  }
  std::vector<std::string> errors;
  std::uint64_t sink = 0;

  // Set-up is repeated after every job and measured throughout the run,
  // like the jobs, rather than at one instant: the host's speed drifts.
  SetupTimes setup;
  std::unique_ptr<DistributedGraph> dg;
  set_up(o, team, setup, spans.get(), sink, dg);
  const std::vector<OutT> oracle = read_oracle<OutT>(o.dir + "/oracle.bin");

  std::unique_ptr<rt::TcpTransport> tcp;
  double connect_s = 0.0;
  if (team.distributed) {
    ScopedSpan span(spans.get(), "connect_mesh", "runtime", kMainThread, -1);
    const auto t0 = Clock::now();
    tcp = core::connect_tcp(core::LaunchConfig::from_env(), team.workers);
    connect_s = seconds_between(t0, Clock::now());
    team.tcp = tcp.get();
  }

  // Warm-up job (uncounted in the timings): fills caches and lazy state,
  // fixes the reference output later jobs must equal bitwise, and counts
  // the bytes behind the link model, which are identical in every job.
  std::vector<OutT> first, out;
  int attempted = 0, failed = 0;
  const auto check = [&](const std::vector<OutT>& got, int job) {
    if (!root) return;
    std::string err = check_output(o.workload->program, got, oracle);
    if (err.empty() && job > 0 && !bitwise_equal(got, first)) {
      err = "output differs bitwise from the first job's";
    }
    if (!err.empty()) {
      ++failed;
      errors.push_back("job " + std::to_string(job) + ": " + err);
    }
  };
  JobRecord warmup = run_job<WorkerT>(team, *dg, extract, first,
                                      /*traced=*/true, nullptr, 0);
  gather_calls(team, warmup);
  ++attempted;
  check(first, 0);
  const double net_model_s = root ? net_model_seconds(warmup.calls) : 0.0;

  std::vector<double> job_s, modeled, msg_bytes, overhead;
  Layers layers;
  std::vector<double> collective_us, round_ms;
  const int min_jobs = o.trace ? 4 : 3;
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    std::uint64_t go = 0;
    if (root) {
      const bool more = o.jobs > 0 ? i < o.jobs
                                   : i < min_jobs || seconds_between(
                                                         start, Clock::now()) <
                                                         o.seconds;
      go = more ? 1 : 0;
    }
    if (team.tcp != nullptr) go = team.tcp->allreduce_or(team.rank, go);
    if (go == 0) break;

    // A traced pass alternates untraced and traced jobs. The first
    // kSpannedJobs traced jobs also record spans; later ones run over the
    // decorator for the metrics only, so the trace file holds whole jobs.
    const bool traced = o.trace && i % 2 == 1;
    SpanBuffer* job_spans =
        traced && i / 2 < kSpannedJobs ? spans.get() : nullptr;
    const std::int32_t job = i + 1;
    JobRecord rec;
    {
      ScopedSpan span(job_spans, "job", "bench", kMainThread, job);
      rec = run_job<WorkerT>(team, *dg, extract, out, traced, job_spans, job);
    }
    if (traced) gather_calls(team, rec);
    ++attempted;
    {
      ScopedSpan span(job_spans, "verify", "bench", kMainThread, job);
      check(out, job);
    }
    set_up(o, team, setup, job_spans, sink, dg);
    if (!root) continue;
    if (traced) {
      // Against the untraced job just before it, so host drift cancels.
      overhead.push_back(rec.job_s / job_s.back() - 1.0);
      add_job_layers(rec, layers, collective_us, round_ms);
    } else {
      job_s.push_back(rec.job_s);
      modeled.push_back(rec.job_s + net_model_s);
      msg_bytes.push_back(static_cast<double>(rec.stats.message_bytes));
    }
  }
  while (setup.total.size() < kSetupReps) {
    set_up(o, team, setup, spans.get(), sink, dg);
  }
  const double rss = gather_peers(team, spans.get());
  if (!root) return 0;

  Metrics m;
  const CsrGraph& csr = dg->csr();
  if (!job_s.empty()) {
    m.add("job_s", "s", job_s);
    m.add("modeled_job_s", "s", modeled);
    m.add("msg_bytes", "bytes", msg_bytes);
  }
  m.add("setup_s", "s", setup.total);
  m.add("peak_rss_mb", "MiB", rss);
  if (o.trace) {
    m.add("graph.load_s", "s", setup.load);
    m.add("graph.partition_s", "s", setup.partition);
    m.add("graph.dgraph_s", "s", setup.dgraph);
    m.add("graph.csr_mb", "MiB",
          static_cast<double>(csr.offsets().size_bytes() +
                              csr.dst_array().size_bytes() +
                              csr.weight_array().size_bytes()) /
              (1024.0 * 1024.0));
    m.add("graph.scan_medges_per_s", "Medges/s", scan_rates(csr, sink));
    if (team.tcp != nullptr) layers["runtime.connect_s"] = {"s", {connect_s}};
    for (const auto& [name, series] : layers) {
      m.add(name, series.unit, series.values);
    }
    m.add("runtime.collective_us_p50", "us", percentile(collective_us, 50));
    m.add("runtime.collective_us_p99", "us", percentile(collective_us, 99));
    for (const int p : {50, 99}) {
      Summary s = summarize({percentile(round_ms, p)});
      s.n = round_ms.size();
      m.add("runtime.round_ms_p" + std::to_string(p), "ms", s);
    }
    m.add("bench.trace_overhead", "ratio", overhead);
    m.add("bench.spans_dropped", "count",
          static_cast<double>(spans->dropped()));
    if (!o.trace_file.empty() && !spans->write_json(o.trace_file)) {
      errors.push_back("cannot write " + o.trace_file);
    }
  }

  // The resolved configuration this record measured.
  std::ostringstream cfg;
  const int slots = warmup.stats.compute_slot_seconds.empty()
                        ? 1
                        : static_cast<int>(
                              warmup.stats.compute_slot_seconds.size());
  cfg << "{\"workers\": " << team.workers << ", \"threads\": " << slots
      << ", \"comm_threads\": " << rt::comm_threads_from_env()
      << ", \"partition\": \"hash\", \"direction\": \"push\""
      << ", \"pipeline\": " << (rt::pipeline_from_env() ? "true" : "false")
      << ", \"mmap\": " << (csr.has_external_storage() ? "true" : "false")
      << ", \"transport\": \"" << (team.tcp != nullptr ? "tcp" : "inprocess")
      << "\", \"sim_net_mbps\": 0, \"checkpoint\": false"
      << ", \"scale_shift\": " << o.shift << ", \"seed\": " << o.seed
      << ", \"source\": " << json_string(o.source) << "}";

  std::ostringstream rec;
  rec << "{\n  \"workload\": \"" << o.workload->name << "\",\n  \"trace\": "
      << (o.trace ? 1 : 0) << ",\n  \"attempted\": " << attempted
      << ",\n  \"failed\": " << failed << ",\n  \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    rec << (i == 0 ? "" : ", ") << json_string(errors[i]);
  }
  const auto samples = [](const std::vector<double>& v) {
    std::ostringstream os;
    os.precision(9);
    for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
    return "[" + os.str() + "]";
  };
  rec << "],\n  \"config\": " << cfg.str() << ",\n  \"job_s\": "
      << samples(job_s) << ",\n  \"metrics\": " << m.json() << "\n}\n";
  g_sink = sink;
  std::ofstream f(o.out);
  f << rec.str();
  if (!f) {
    std::fprintf(stderr, "bench_suite: cannot write %s\n", o.out.c_str());
    return 1;
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "bench_suite: %s\n", e.c_str());
  }
  return errors.empty() ? 0 : 1;
}

int run_workload(const Options& o) {
  const core::LaunchConfig launch = core::LaunchConfig::from_env();
  const bool tcp = launch.transport == rt::TransportKind::kTcp;
  if (tcp != o.workload->tcp) {
    std::fprintf(stderr,
                 "bench_suite: workload %s runs %s; start it through "
                 "perfbench/run.py\n",
                 o.workload->name,
                 o.workload->tcp ? "under pgch_launch --transport tcp"
                                 : "in-process, without pgch_launch");
    return 2;
  }
  Team team;
  team.workers = o.workload->workers;
  team.distributed = tcp;
  team.rank = tcp ? launch.rank : 0;
  switch (o.workload->program) {
    case Program::kPageRank:
      return run<pregel::algo::PageRankCombined, double>(
          o, team,
          [](const pregel::algo::PRVertex& v) { return v.value().rank; });
    case Program::kSv:
      return run<pregel::algo::SvBoth, VertexId>(
          o, team, [](const pregel::algo::SvVertex& v) { return v.value().d; });
    case Program::kScc:
      return run<pregel::algo::SccBasic, VertexId>(
          o, team,
          [](const pregel::algo::SccVertex& v) { return v.value().scc; });
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  guard_configuration();
  const Options o = parse_options(argc, argv);
  try {
    return o.command == "prepare" ? prepare(o) : run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 1;
  }
}
