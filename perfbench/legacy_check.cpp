// legacy_check: fails when seed 0 of a workload is not the legacy graph.
//
//   legacy_check --workload W --scale S
//
// datasets.hpp repeats the dataset recipes of bench/bench_common.hpp with
// a seed added. This program builds a workload's seed-0 graph both ways
// and compares the CSR arrays, so the two copies cannot drift apart
// silently. It is its own program because bench_common.hpp sets
// PGCH_SIM_NET_MBPS when it is loaded, which bench_suite refuses.
// perfbench/run.py runs it once per prepared seed-0 input.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hpp"
#include "datasets.hpp"

namespace {

const pregel::graph::CsrGraph& legacy_graph(const std::string& workload) {
  if (workload == "pr-webuk") return bench::webuk_graph();
  if (workload == "pr-wiki-tcp") return bench::wikipedia_graph();
  if (workload == "sv-twitter") return bench::twitter_graph();
  if (workload == "scc-wiki") return bench::wikipedia_scc_graph();
  throw std::invalid_argument("no legacy graph for '" + workload + "'");
}

bool same_csr(const pregel::graph::CsrGraph& a,
              const pregel::graph::CsrGraph& b) {
  return std::ranges::equal(a.offsets(), b.offsets()) &&
         std::ranges::equal(a.dst_array(), b.dst_array()) &&
         std::ranges::equal(a.weight_array(), b.weight_array());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 5 || std::string(argv[1]) != "--workload" ||
      std::string(argv[3]) != "--scale") {
    std::fprintf(stderr, "usage: legacy_check --workload W --scale S\n");
    return 2;
  }
  try {
    const perfbench::Workload& w = perfbench::find_workload(argv[2]);
    const int shift = std::stoi(argv[4]);
    // The legacy helpers read their scale from the environment.
    ::setenv("PGCH_BENCH_SCALE_SHIFT", argv[4], 1);
    const pregel::graph::CsrGraph ours =
        perfbench::make_graph(w, /*seed=*/0, shift).finalize();
    if (!same_csr(ours, legacy_graph(w.name))) {
      std::fprintf(stderr,
                   "legacy_check: %s seed 0 differs from bench_common.hpp's "
                   "stand-in; perfbench/datasets.hpp and "
                   "bench/bench_common.hpp disagree\n",
                   w.name);
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "legacy_check: %s\n", e.what());
    return 1;
  }
  return 0;
}
