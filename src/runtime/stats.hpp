#pragma once
// RunStats: the measurement record every engine run produces. These are
// the quantities the paper's evaluation tables report: wall-clock runtime
// and message volume, plus superstep/communication-round counts that the
// analysis sections reference (e.g. SCC's 1247 supersteps).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/buffer.hpp"

namespace pregel::runtime {

struct RunStats {
  double seconds = 0.0;          ///< wall time of the superstep loop
  /// Wall time split of the superstep bodies: channel/message processing
  /// + vertex compute vs. serialize/exchange/deserialize + the votes the
  /// communication loop takes. Engines accumulate these per superstep.
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  /// Breakdown of the communication phase: channel serialize (outbox
  /// staging + writes), the collective buffer exchange, and channel
  /// deserialize (delivery). comm_seconds additionally covers the
  /// quiescence/activity votes, so it is >= the sum of these three.
  double serialize_seconds = 0.0;
  double exchange_seconds = 0.0;
  double deliver_seconds = 0.0;
  int supersteps = 0;            ///< number of (global) supersteps executed
  std::uint64_t comm_rounds = 0; ///< buffer-exchange rounds (>= supersteps)
  /// Bytes this rank shipped through the exchange (payload + frame
  /// headers). merge_from() sums the per-rank shares into the team total.
  std::uint64_t message_bytes = 0;
  std::uint64_t message_batches = 0; ///< non-empty (src,dst) buffers moved

  /// Frame-header bytes of the framed wire protocol (channel-engine runs
  /// only; protocol overhead, not attributed to any channel). Invariant:
  /// sum(bytes_by_channel) + frame_bytes == message_bytes.
  std::uint64_t frame_bytes = 0;

  /// Payload bytes attributed to each named channel (channel-engine runs
  /// only), as accounted by the exchange's frame lengths.
  std::map<std::string, std::uint64_t> bytes_by_channel;

  /// Frontier sizes: how many vertices were active entering each
  /// superstep (index 0 = superstep 1), and their sum over the run —
  /// compute() work actually done, as opposed to supersteps * V.
  std::vector<std::uint64_t> active_per_superstep;
  std::uint64_t active_vertex_total = 0;

  /// Exchange bytes this rank shipped during each superstep (index 0 =
  /// superstep 1; a superstep with several communication rounds reports
  /// their sum). Merged element-wise across ranks.
  std::vector<std::uint64_t> bytes_per_superstep;

  /// Direction the engine chose for each superstep (channel engine only;
  /// index 0 = superstep 1): 0 = push, 1 = pull — the numeric values of
  /// core::Direction. The decision is collective, so every rank records
  /// the identical sequence; merge_from() asserts that.
  std::vector<std::uint8_t> direction_per_superstep;

  /// CPU seconds each ComputePool slot burned in compute phases over the
  /// run (index = slot; empty for sequential compute; CPU rather than
  /// wall time so the figure survives an oversubscribed host). Skew
  /// observability: with a pinned schedule a hub-heavy chunk shows up as
  /// one slot far above the mean; work stealing flattens it. merge_from()
  /// takes the element-wise max across ranks (the slowest rank's slot is
  /// what the barrier waits on).
  std::vector<double> compute_slot_seconds;

  /// CPU seconds each *rank* burned in its compute phases, in rank order
  /// (engines record their own figure at the end of run(); merge_from()
  /// concatenates, and both the in-process and the TCP stats folds merge
  /// in ascending rank order). The max/mean of this vector is the
  /// cross-rank load imbalance a partitioner leaves behind.
  std::vector<double> rank_compute_seconds;

  /// Max/mean imbalance of a nonnegative sample vector: 1.0 = perfectly
  /// balanced, W = one of W entries did all the work. 0.0 when the vector
  /// is empty or all-zero (no signal).
  [[nodiscard]] static double imbalance(const std::vector<double>& v);
  [[nodiscard]] double slot_imbalance() const {
    return imbalance(compute_slot_seconds);
  }
  [[nodiscard]] double rank_imbalance() const {
    return imbalance(rank_compute_seconds);
  }

  /// Record one superstep's frontier size (engines call this at superstep
  /// start, after begin_superstep()).
  void note_active(std::uint64_t n) {
    active_per_superstep.push_back(n);
    active_vertex_total += n;
  }

  /// Record one superstep's chosen direction (0 = push, 1 = pull).
  void note_direction(std::uint8_t dir) {
    direction_per_superstep.push_back(dir);
  }

  /// Fold another rank's stats of the same run into this one, explicitly
  /// per field: per-rank counters are summed, globally-agreed quantities
  /// kept verbatim, wall time maxed. See stats.cpp for the field map.
  void merge_from(const RunStats& other);

  /// Wire round-trip for the multi-process stats fold: every rank ships
  /// its RunStats to rank 0 over the transport's control lane, which
  /// merges and broadcasts the team-global record.
  void serialize(Buffer& out) const;
  static RunStats deserialize(Buffer& in);

  [[nodiscard]] double message_mb() const {
    return static_cast<double>(message_bytes) / (1024.0 * 1024.0);
  }

  /// One-line human-readable summary ("12.34 s  56.78 MB  31 steps").
  [[nodiscard]] std::string summary() const;

  /// Multi-line report including the per-channel byte breakdown and the
  /// compute/communication wall-time split.
  [[nodiscard]] std::string detailed() const;
};

}  // namespace pregel::runtime
