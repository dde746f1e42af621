// Table VII: the Min-Label SCC algorithm with and without the propagation
// channel, on the hash-partitioned and locality-partitioned Wikipedia
// stand-in.
//
// Paper rows (runtime s / message GB on Wikipedia and Wikipedia (P)):
//   1-pregel+(basic)  52.15 / 9.85    50.51 / 2.70
//   2-channel (basic) 61.89 / 4.98    67.84 / 1.29
//   3-channel (prop.) 31.37 / 4.42    13.96 / 1.12
//
// Expected shape: the channel basic version uses ~half the bytes (typed
// channels instead of the monolithic 16-byte message) but can be slightly
// SLOWER than Pregel+ (channel-round overhead across the many nearly-empty
// supersteps — the one case the paper reports a loss); the propagation
// version is ~2x faster unpartitioned and ~4x faster partitioned. Here
// both basic programs halt and compute only their frontier (DESIGN.md
// section 6), which narrows the propagation version's lead.

#include <benchmark/benchmark.h>

#include "algorithms/pp_scc.hpp"
#include "algorithms/scc.hpp"
#include "bench_common.hpp"

namespace {

using namespace pregel;

const bench::CsrGraph& wiki_bi() {
  static const bench::CsrGraph g =
      algo::make_bidirected(bench::wikipedia_scc_graph());
  return g;
}

PGCH_CACHED_DG(wiki_hash, bench::hash_dg(wiki_bi()))
PGCH_CACHED_DG(wiki_part, bench::voronoi_dg(wiki_bi()))

void SCC_Wikipedia_1_PregelBasic(benchmark::State& s) {
  bench::run_case<algo::PPScc>(s, __func__, wiki_hash());
}
void SCC_Wikipedia_2_ChannelBasic(benchmark::State& s) {
  bench::run_case<algo::SccBasic>(s, __func__, wiki_hash());
}
void SCC_Wikipedia_3_ChannelProp(benchmark::State& s) {
  bench::run_case<algo::SccPropagation>(s, __func__, wiki_hash());
}
void SCC_WikipediaP_1_PregelBasic(benchmark::State& s) {
  bench::run_case<algo::PPScc>(s, __func__, wiki_part());
}
void SCC_WikipediaP_2_ChannelBasic(benchmark::State& s) {
  bench::run_case<algo::SccBasic>(s, __func__, wiki_part());
}
void SCC_WikipediaP_3_ChannelProp(benchmark::State& s) {
  bench::run_case<algo::SccPropagation>(s, __func__, wiki_part());
}

#define PGCH_BENCH(fn) \
  BENCHMARK(fn)->Unit(benchmark::kMillisecond)->UseManualTime()->Iterations(1)

PGCH_BENCH(SCC_Wikipedia_1_PregelBasic);
PGCH_BENCH(SCC_Wikipedia_2_ChannelBasic);
PGCH_BENCH(SCC_Wikipedia_3_ChannelProp);
PGCH_BENCH(SCC_WikipediaP_1_PregelBasic);
PGCH_BENCH(SCC_WikipediaP_2_ChannelBasic);
PGCH_BENCH(SCC_WikipediaP_3_ChannelProp);

}  // namespace

PGCH_BENCH_MAIN()
