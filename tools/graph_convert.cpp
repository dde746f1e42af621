// graph_convert: turn edge-list text files (with or without our
// "num_vertices [weighted]" header — raw SNAP downloads work) into the
// binary CSR snapshot format, and inspect either format.
//
// Usage:
//   graph_convert <input.txt|input.bin> <output.bin>   convert to snapshot
//   graph_convert --info <input>                       print graph stats
//   graph_convert --stats <input>                      + snapshot layout and
//                                                        degree distribution
//   graph_convert --rmat <V> <E> <seed> <out.bin>      synthesize an R-MAT
//                                                        snapshot
//
// --stats adds the snapshot's format version and per-array file offsets
// (with their 64-byte-alignment status — the property the zero-copy mmap
// loader needs), plus the out- and in-degree percentiles (p50/p90/p99/max)
// — the numbers that show how hub-heavy the graph is (MirrorScatter vs
// ScatterCombine) and predict how skewed a range partition of the id
// space will be.
//
// --rmat feeds CI and smoke tests that need a power-law snapshot without
// the bench harness (the asan job builds with benches off). Its arguments
// are parsed strictly: V must lie in 1..2^31 (R-MAT rounds it up to a
// power of two, which must fit a 32-bit vertex id), and non-numeric text,
// trailing junk or a value out of range exits 2 naming the argument.
//
// Snapshots are format v3, the only readable one; a retired v1 or v2
// file is refused by name and is regenerated from its edge list. The
// output reloads via graph::load_binary_mmap / graph::load_any; every
// example binary and the benches (PGCH_DATASET_* environment overrides)
// accept it. Format spec: DESIGN.md section 5.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "runtime/env.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void print_info(const char* label, const pregel::graph::CsrGraph& g) {
  std::uint32_t max_deg = 0;
  for (pregel::graph::VertexId u = 0; u < g.num_vertices(); ++u) {
    max_deg = std::max(max_deg, g.out_degree(u));
  }
  std::printf(
      "%s: %u vertices, %llu edges (%s), avg degree %.2f, max degree %u\n"
      "  checksum %016llx\n",
      label, g.num_vertices(),
      static_cast<unsigned long long>(g.num_edges()),
      g.is_weighted() ? "weighted" : "unweighted", g.avg_degree(), max_deg,
      static_cast<unsigned long long>(g.checksum()));
}

/// Degree value at percentile `pct` of a sorted ascending sample.
std::uint32_t percentile(const std::vector<std::uint32_t>& sorted, int pct) {
  if (sorted.empty()) return 0;
  const std::size_t idx =
      std::min(sorted.size() - 1, sorted.size() * static_cast<std::size_t>(pct) / 100);
  return sorted[idx];
}

void print_degree_row(const char* label, std::vector<std::uint32_t> degrees) {
  std::sort(degrees.begin(), degrees.end());
  std::printf("  %s degree: p50 %u, p90 %u, p99 %u, max %u\n", label,
              percentile(degrees, 50), percentile(degrees, 90),
              percentile(degrees, 99),
              degrees.empty() ? 0u : degrees.back());
}

/// The degree-distribution summary --stats adds: out- and in-degree
/// percentiles, the input to judging hub fan-out and partition skew.
void print_stats(const pregel::graph::CsrGraph& g) {
  const pregel::graph::VertexId n = g.num_vertices();
  std::vector<std::uint32_t> out_deg(n, 0), in_deg(n, 0);
  for (pregel::graph::VertexId u = 0; u < n; ++u) {
    out_deg[u] = g.out_degree(u);
    for (const pregel::graph::VertexId v : g.neighbors(u)) ++in_deg[v];
  }
  print_degree_row("out", std::move(out_deg));
  print_degree_row("in", std::move(in_deg));
}

void print_array_offset(const char* name, std::uint64_t off) {
  std::printf("    %-7s at %10llu (%s)\n", name,
              static_cast<unsigned long long>(off),
              off % 64 == 0 ? "64-byte aligned" : "UNALIGNED");
}

/// Snapshot-layout summary --stats adds for binary inputs: the format
/// version and each array's file offset with its alignment status (the
/// mapped loader serves the arrays as 64-byte-aligned spans).
void print_snapshot_layout(const std::string& path) {
  const auto info = pregel::graph::snapshot_info(path);
  if (!info) {
    std::printf("  snapshot: not a binary snapshot (text edge list)\n");
    return;
  }
  std::printf("  snapshot: format v%u\n", info->version);
  print_array_offset("offsets", info->offsets_off);
  print_array_offset("dst", info->dst_off);
  if (info->weighted) print_array_offset("weights", info->weights_off);
}

/// Deterministic R-MAT snapshot straight to disk (CI smoke input).
int make_rmat(const char* n_str, const char* m_str, const char* seed_str,
              const std::string& out) {
  constexpr long long kMaxVertices = 1LL << 31;  // rounded up: must fit
  using pregel::runtime::parse_int64;
  pregel::graph::RmatOptions opts;
  try {
    opts.num_vertices = static_cast<pregel::graph::VertexId>(
        parse_int64("--rmat V", n_str, 1, kMaxVertices));
    opts.num_edges =
        static_cast<std::uint64_t>(parse_int64("--rmat E", m_str, 1));
    opts.seed =
        static_cast<std::uint64_t>(parse_int64("--rmat seed", seed_str, 0));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "graph_convert: %s\n", e.what());
    return 2;
  }
  const auto t0 = Clock::now();
  const auto g = pregel::graph::rmat(opts).finalize();
  print_info("rmat", g);
  pregel::graph::save_binary(g, out);
  std::printf("wrote snapshot %s in %.1f ms\n", out.c_str(), ms_since(t0));
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: graph_convert <input.txt|input.bin> <output.bin>\n"
               "       graph_convert --info <input>\n"
               "       graph_convert --stats <input>\n"
               "       graph_convert --rmat <V> <E> <seed> <out.bin>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto has_flag = [&](const char* flag) {
      return argc == 3 && (std::string(argv[1]) == flag ||
                           std::string(argv[2]) == flag);
    };
    if (argc == 6 && std::string(argv[1]) == "--rmat") {
      return make_rmat(argv[2], argv[3], argv[4], argv[5]);
    }
    if (has_flag("--info") || has_flag("--stats")) {
      const bool stats = has_flag("--stats");
      const char* input = argv[1][0] == '-' ? argv[2] : argv[1];
      const auto t0 = Clock::now();
      const auto g = pregel::graph::load_any(input);
      std::printf("loaded %s in %.1f ms\n", input, ms_since(t0));
      print_info(input, g);
      if (stats) {
        print_snapshot_layout(input);
        print_stats(g);
      }
      return 0;
    }
    if (argc != 3) return usage();
    // Any other flag-looking argument is a mistake, not an output path.
    if (argv[1][0] == '-' || argv[2][0] == '-') return usage();

    const auto t_load = Clock::now();
    const auto g = pregel::graph::load_any(argv[1]);
    std::printf("loaded %s in %.1f ms\n", argv[1], ms_since(t_load));
    print_info("input", g);

    const auto t_save = Clock::now();
    pregel::graph::save_binary(g, argv[2]);
    std::printf("wrote snapshot %s in %.1f ms\n", argv[2], ms_since(t_save));

    // Paranoia that costs milliseconds: reload and compare checksums so a
    // bad disk or a format regression never produces a silently-wrong
    // snapshot. The reload is this process's first load of the new file,
    // so the mapped loader checks its checksum and CSR invariants in full.
    const auto t_verify = Clock::now();
    const auto back = pregel::graph::load_binary_mmap(argv[2]);
    if (back.checksum() != g.checksum()) {
      std::fprintf(stderr, "verification FAILED: reloaded checksum differs\n");
      return 1;
    }
    std::printf("verified round-trip in %.1f ms\n", ms_since(t_verify));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "graph_convert: %s\n", e.what());
    return 1;
  }
}
