#include "runtime/stats.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace pregel::runtime {

namespace {

/// Element-wise sum of per-superstep counters (ranks agree on the
/// superstep count; tolerate a short tail anyway).
void merge_per_superstep(std::vector<std::uint64_t>& into,
                         const std::vector<std::uint64_t>& from) {
  if (from.size() > into.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

}  // namespace

double RunStats::imbalance(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0, peak = 0.0;
  for (const double x : v) {
    sum += x;
    peak = std::max(peak, x);
  }
  if (sum <= 0.0) return 0.0;
  return peak / (sum / static_cast<double>(v.size()));
}

void RunStats::merge_from(const RunStats& other) {
  // Wall time: ranks run concurrently, the run takes as long as the
  // slowest rank. The compute/communication split is maxed the same way
  // (each half of the slowest rank's split, not a cross-rank sum that
  // would exceed the wall time).
  seconds = std::max(seconds, other.seconds);
  compute_seconds = std::max(compute_seconds, other.compute_seconds);
  comm_seconds = std::max(comm_seconds, other.comm_seconds);
  // The communication-phase breakdown is per-rank wall time like the
  // split above: ranks overlap, so the team figure for each sub-phase is
  // the slowest rank's, not a cross-rank sum that would exceed seconds.
  serialize_seconds = std::max(serialize_seconds, other.serialize_seconds);
  exchange_seconds = std::max(exchange_seconds, other.exchange_seconds);
  deliver_seconds = std::max(deliver_seconds, other.deliver_seconds);
  // Supersteps and communication rounds are collective — the quiescence
  // vote and the round loop keep every rank in lock-step, so all ranks
  // report the same number. max() keeps the merge well-defined even if an
  // engine ever diverges.
  supersteps = std::max(supersteps, other.supersteps);
  comm_rounds = std::max(comm_rounds, other.comm_rounds);
  // Traffic is accounted per rank (each rank counts what it handed to the
  // transport), so the team figure is the sum — identically under the
  // in-process and the TCP transport.
  message_bytes += other.message_bytes;
  message_batches += other.message_batches;
  // Frame overhead and per-channel payload bytes are accounted per rank
  // (each rank counts what it serialized), so the global figure is the
  // sum.
  frame_bytes += other.frame_bytes;
  for (const auto& [name, bytes] : other.bytes_by_channel) {
    bytes_by_channel[name] += bytes;
  }
  // Frontier sizes and per-superstep traffic are per-rank counts: the
  // global figure of a superstep is their element-wise sum.
  merge_per_superstep(active_per_superstep, other.active_per_superstep);
  merge_per_superstep(bytes_per_superstep, other.bytes_per_superstep);
  active_vertex_total += other.active_vertex_total;
  // Per-slot compute time is a wall quantity like the phase split above:
  // the team figure for slot s is the slowest rank's slot s.
  if (other.compute_slot_seconds.size() > compute_slot_seconds.size()) {
    compute_slot_seconds.resize(other.compute_slot_seconds.size(), 0.0);
  }
  for (std::size_t i = 0; i < other.compute_slot_seconds.size(); ++i) {
    compute_slot_seconds[i] =
        std::max(compute_slot_seconds[i], other.compute_slot_seconds[i]);
  }
  // Per-rank compute time concatenates: both fold paths (the in-process
  // loop and the TCP gather at rank 0) merge ranks in ascending order, so
  // index r stays rank r's figure.
  rank_compute_seconds.insert(rank_compute_seconds.end(),
                              other.rank_compute_seconds.begin(),
                              other.rank_compute_seconds.end());
}

void RunStats::serialize(Buffer& out) const {
  out.write(seconds);
  out.write(compute_seconds);
  out.write(comm_seconds);
  out.write(serialize_seconds);
  out.write(exchange_seconds);
  out.write(deliver_seconds);
  out.write<std::int32_t>(supersteps);
  out.write(comm_rounds);
  out.write(message_bytes);
  out.write(message_batches);
  out.write(frame_bytes);
  out.write<std::uint32_t>(static_cast<std::uint32_t>(
      bytes_by_channel.size()));
  for (const auto& [name, bytes] : bytes_by_channel) {
    out.write_string(name);
    out.write(bytes);
  }
  out.write_vector(active_per_superstep);
  out.write(active_vertex_total);
  out.write_vector(bytes_per_superstep);
  out.write_vector(compute_slot_seconds);
  out.write_vector(rank_compute_seconds);
}

RunStats RunStats::deserialize(Buffer& in) {
  RunStats s;
  s.seconds = in.read<double>();
  s.compute_seconds = in.read<double>();
  s.comm_seconds = in.read<double>();
  s.serialize_seconds = in.read<double>();
  s.exchange_seconds = in.read<double>();
  s.deliver_seconds = in.read<double>();
  s.supersteps = in.read<std::int32_t>();
  s.comm_rounds = in.read<std::uint64_t>();
  s.message_bytes = in.read<std::uint64_t>();
  s.message_batches = in.read<std::uint64_t>();
  s.frame_bytes = in.read<std::uint64_t>();
  const auto channels = in.read<std::uint32_t>();
  for (std::uint32_t i = 0; i < channels; ++i) {
    const std::string name = in.read_string();
    s.bytes_by_channel[name] = in.read<std::uint64_t>();
  }
  s.active_per_superstep = in.read_vector<std::uint64_t>();
  s.active_vertex_total = in.read<std::uint64_t>();
  s.bytes_per_superstep = in.read_vector<std::uint64_t>();
  s.compute_slot_seconds = in.read_vector<double>();
  s.rank_compute_seconds = in.read_vector<double>();
  return s;
}

std::string RunStats::summary() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << seconds << " s  "
     << std::setprecision(2) << message_mb() << " MB  " << supersteps
     << " steps  " << comm_rounds << " rounds";
  return os.str();
}

std::string RunStats::detailed() const {
  std::ostringstream os;
  os << summary() << "\n";
  if (compute_seconds != 0.0 || comm_seconds != 0.0) {
    os << "  compute " << std::fixed << std::setprecision(3)
       << compute_seconds << " s / communicate " << comm_seconds << " s";
    if (serialize_seconds != 0.0 || exchange_seconds != 0.0 ||
        deliver_seconds != 0.0) {
      os << " (serialize " << serialize_seconds << " s, exchange "
         << exchange_seconds << " s, deliver " << deliver_seconds << " s)";
    }
    os << "\n";
  }
  if (!rank_compute_seconds.empty() || !compute_slot_seconds.empty()) {
    os << "  imbalance (max/mean compute CPU):";
    if (!rank_compute_seconds.empty()) {
      os << " ranks " << std::fixed << std::setprecision(2)
         << rank_imbalance() << "x over " << rank_compute_seconds.size();
    }
    if (!compute_slot_seconds.empty()) {
      os << (rank_compute_seconds.empty() ? "" : ",") << " slots "
         << std::fixed << std::setprecision(2) << slot_imbalance()
         << "x over " << compute_slot_seconds.size();
    }
    os << "\n";
  }
  for (const auto& [name, bytes] : bytes_by_channel) {
    os << "  channel " << name << ": " << std::fixed << std::setprecision(2)
       << static_cast<double>(bytes) / (1024.0 * 1024.0) << " MB\n";
  }
  if (frame_bytes != 0) {
    os << "  frame overhead: " << std::fixed << std::setprecision(2)
       << static_cast<double>(frame_bytes) / (1024.0 * 1024.0) << " MB\n";
  }
  if (active_vertex_total != 0 && !active_per_superstep.empty()) {
    os << "  active vertices: " << active_vertex_total << " total, "
       << active_vertex_total / active_per_superstep.size()
       << " avg/superstep\n";
  }
  if (!bytes_per_superstep.empty()) {
    std::uint64_t total = 0, peak = 0;
    for (const std::uint64_t b : bytes_per_superstep) {
      total += b;
      peak = std::max(peak, b);
    }
    os << "  exchange bytes/superstep: "
       << total / bytes_per_superstep.size() << " avg, " << peak
       << " peak\n";
  }
  return os.str();
}

}  // namespace pregel::runtime
