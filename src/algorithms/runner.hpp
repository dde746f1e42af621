#pragma once
// Conveniences for launching an algorithm worker and collecting per-vertex
// results into a global array. Used by tests, benches and examples.

#include <functional>
#include <stdexcept>
#include <vector>

#include "core/pregel_channel.hpp"
#include "graph/distributed.hpp"

namespace pregel::algo {

/// All-gather per-vertex results across a distributed team: each rank
/// contributes the entries of `out` at its own vertices' global ids; rank
/// 0 folds them and broadcasts, so every rank returns with the complete
/// array. Requires a trivially-serializable OutT. Collective.
template <typename OutT>
  requires runtime::TriviallySerializable<OutT>
void allgather_results(runtime::Transport& transport, int rank,
                       const graph::DistributedGraph& dg,
                       std::vector<OutT>& out) {
  runtime::Buffer mine;
  const auto& ids = dg.ids(rank);
  mine.write<std::uint64_t>(ids.size());
  for (const graph::VertexId v : ids) {
    mine.write(v);
    mine.write(out[v]);
  }
  std::vector<runtime::Buffer> blobs = transport.gather_to_root(rank, mine);
  runtime::Buffer full;
  if (rank == 0) {
    for (runtime::Buffer& blob : blobs) {
      const auto n = blob.read<std::uint64_t>();
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto v = blob.read<graph::VertexId>();
        out[v] = blob.read<OutT>();
      }
    }
    full.write_vector(out);
  }
  transport.broadcast_from_root(rank, &full);
  full.rewind();
  out = full.read_vector<OutT>();
}

/// Launch WorkerT on dg, then extract one value per vertex into `out`
/// (indexed by global vertex id). `extract` maps a vertex to its result.
/// Collection runs concurrently across ranks; vertex ids are disjoint, so
/// the writes are race-free.
///
/// Under the TCP transport (PGCH_TRANSPORT=tcp) this process computes one
/// rank, and the per-vertex results are all-gathered over the control
/// lane afterwards, so `out` is the complete global array on every rank —
/// examples verify against their references unchanged. The all-gather
/// runs inside the same recovery loop as the run (core::run_tcp_rank), so
/// a rank lost mid-run is respawned and resumed here as in core::launch.
/// (OutT must be trivially serializable for the gather; every current
/// caller's is.)
template <typename WorkerT, typename OutT, typename Extract>
runtime::RunStats run_collect(
    const graph::DistributedGraph& dg, std::vector<OutT>& out,
    Extract extract,
    const std::function<void(WorkerT&)>& configure = nullptr) {
  out.assign(dg.num_vertices(), OutT{});
  // Collection is read-only: take the worker const and use the const
  // for_each_vertex overload, so extract sees `const VertexT&`.
  const auto collect = [&](const WorkerT& w, int /*rank*/) {
    w.for_each_vertex([&](const auto& v) { out[v.id()] = extract(v); });
  };
  const core::LaunchConfig config = core::LaunchConfig::from_env();
  if (config.transport == runtime::TransportKind::kTcp) {
    if constexpr (runtime::TriviallySerializable<OutT>) {
      return core::run_tcp_rank(
          config, dg.num_workers(), [&](runtime::Transport& transport) {
            const runtime::RunStats stats = core::launch_distributed<WorkerT>(
                dg, transport, config.rank, configure, collect);
            allgather_results(transport, config.rank, dg, out);
            return stats;
          });
    } else {
      // Falling through to a plain distributed run would silently return
      // `out` with only this rank's entries filled.
      throw std::logic_error(
          "run_collect: result type is not trivially serializable, so its "
          "values cannot be all-gathered across a TCP team — collect "
          "through core::launch() and merge rank outputs yourself");
    }
  }
  return core::launch<WorkerT>(dg, config, configure, collect);
}

/// Launch WorkerT and discard per-vertex results (benchmark runs).
template <typename WorkerT>
runtime::RunStats run_only(
    const graph::DistributedGraph& dg,
    const std::function<void(WorkerT&)>& configure = nullptr) {
  return core::launch<WorkerT>(dg, configure, nullptr);
}

}  // namespace pregel::algo
