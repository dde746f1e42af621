#pragma once
// A Transport decorator for tests that pin what an in-process team puts
// on the wire and how many collectives it pays for: every call is
// forwarded to an InProcessTransport, and each rank's exchanges and
// collectives are counted. Each exchange also records one FNV-1a hash
// over the rank's outboxes (peer order, frame headers included), so two
// runs whose per-round hash lists match sent byte-identical rounds. The
// rank's RunStats ride along.
//
// run_recorded() is core::launch()'s in-process body with the ranks'
// transport wrapped.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/worker.hpp"
#include "graph/distributed.hpp"
#include "runtime/exchange.hpp"
#include "runtime/stats.hpp"
#include "runtime/team.hpp"
#include "runtime/transport.hpp"

namespace pregel::testing {

/// What one rank did inside the transport during one run.
struct RankRecord {
  std::uint64_t exchanges = 0;
  std::uint64_t collectives = 0;  ///< barrier, all-reduces, gather, bcast
  std::vector<std::uint64_t> round_hashes;  ///< one per exchange
  runtime::RunStats stats;  ///< what the rank's run() returned
};

class RecordingTransport final : public runtime::Transport {
 public:
  explicit RecordingTransport(int num_workers)
      : inner_(num_workers),
        records_(static_cast<std::size_t>(num_workers)) {}

  [[nodiscard]] const std::vector<RankRecord>& records() const {
    return records_;
  }

  /// Fail every collective of the team (a rank threw).
  void abort() { inner_.abort(); }

  [[nodiscard]] int world_size() const noexcept override {
    return inner_.world_size();
  }
  runtime::Buffer& outbox(int from, int to) override {
    return inner_.outbox(from, to);
  }
  runtime::Buffer& inbox(int to, int from) override {
    return inner_.inbox(to, from);
  }

  void exchange(int rank) override {
    RankRecord& r = record(rank);
    std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
    for (int peer = 0; peer < world_size(); ++peer) {
      const runtime::Buffer& box = inner_.outbox(rank, peer);
      if (box.read_pos() != 0) {
        throw std::logic_error("RecordingTransport: outbox already read");
      }
      const std::byte* p = box.read_ptr();
      for (std::size_t i = 0; i < box.size(); ++i) {
        h = (h ^ static_cast<std::uint64_t>(p[i])) * 1099511628211ull;
      }
      h = (h ^ box.size()) * 1099511628211ull;  // section boundary
    }
    r.round_hashes.push_back(h);
    ++r.exchanges;
    inner_.exchange(rank);
  }

  void barrier(int rank) override {
    ++record(rank).collectives;
    inner_.barrier(rank);
  }
  std::uint64_t allreduce_or(int rank, std::uint64_t local) override {
    ++record(rank).collectives;
    return inner_.allreduce_or(rank, local);
  }
  std::uint64_t allreduce_sum(int rank, std::uint64_t local) override {
    ++record(rank).collectives;
    return inner_.allreduce_sum(rank, local);
  }
  std::vector<runtime::Buffer> gather_to_root(
      int rank, const runtime::Buffer& local) override {
    ++record(rank).collectives;
    return inner_.gather_to_root(rank, local);
  }
  void broadcast_from_root(int rank, runtime::Buffer* data) override {
    ++record(rank).collectives;
    inner_.broadcast_from_root(rank, data);
  }

 private:
  RankRecord& record(int rank) {
    return records_[static_cast<std::size_t>(rank)];
  }

  runtime::InProcessTransport inner_;
  std::vector<RankRecord> records_;  ///< each written by its rank only
};

/// Run WorkerT as an in-process team over a RecordingTransport and return
/// the per-rank records. `configure` and `collect` are core::launch()'s.
template <typename WorkerT>
std::vector<RankRecord> run_recorded(
    const graph::DistributedGraph& dg,
    const std::function<void(WorkerT&)>& configure = nullptr,
    const std::function<void(WorkerT&, int)>& collect = nullptr) {
  RecordingTransport transport(dg.num_workers());
  runtime::Exchange exchange(transport);
  std::vector<runtime::RunStats> stats(
      static_cast<std::size_t>(dg.num_workers()));
  runtime::WorkerTeam::run(
      dg.num_workers(),
      [&](int rank) {
        stats[static_cast<std::size_t>(rank)] = core::detail::run_rank<WorkerT>(
            dg, exchange, transport, rank, configure, collect);
      },
      [&transport] { transport.abort(); });
  std::vector<RankRecord> records = transport.records();
  for (std::size_t r = 0; r < records.size(); ++r) {
    records[r].stats = std::move(stats[r]);
  }
  return records;
}

}  // namespace pregel::testing
