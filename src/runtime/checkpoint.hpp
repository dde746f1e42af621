#pragma once
// Superstep checkpointing: the durable half of fault tolerance
// (DESIGN.md section 12, docs/fault_tolerance.md).
//
// Every PGCH_CHECKPOINT_EVERY supersteps each rank freezes its engine
// state into a Buffer and hands it here. A checkpoint file reuses the
// snapshot idioms of src/graph/io.cpp: magic + version header, an
// FNV-1a checksum over the payload, write-to-temp + fsync +
// atomic-rename so a crash mid-write never leaves a file that parses.
// Commit is two-phase over the control lane: every rank durably renames
// its own file, the team barriers, then rank 0 renames the LATEST
// marker — so the marker never names an epoch some rank did not finish
// writing.
//
// Layout inside the checkpoint directory:
//
//   ckpt_r<rank>_e<epoch>.bin    one per rank per checkpointed epoch
//   LATEST                       text: "<epoch> <world>\n", written by
//                                rank 0 after the commit barrier
//
// Recovery reads LATEST for the newest committed epoch, then walks
// downward past any file that fails its checksum (the corrupt-fault
// path); the engines agree on min(valid epoch) across ranks over the
// control lane before restoring.

#include <cstdint>
#include <string>

#include "runtime/buffer.hpp"

namespace pregel::runtime {

/// A checkpoint file was missing, truncated, corrupt, or from a
/// different run shape (wrong rank/world/epoch).
class CheckpointError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

/// 64-bit FNV-1a over a byte range — same hash the snapshot format uses
/// (src/graph/io.cpp); duplicated here because checkpoints must not
/// depend on the graph layer.
inline std::uint64_t checkpoint_fnv1a64(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Knobs for the checkpoint/restore cycle, read once per engine
/// construction so a recovery retry inside one process picks up the
/// resume request launch() sets.
struct CheckpointConfig {
  /// Checkpoint every K supersteps; 0 disables the subsystem entirely
  /// (no files, no barriers, no extra control traffic).
  int every = 0;
  /// Directory holding the per-rank checkpoint files + LATEST marker.
  std::string dir = "pgch_checkpoints";
  /// True when PGCH_RESUME is set ("auto" or an epoch number): the
  /// engine proposes its best locally valid committed epoch to the team
  /// instead of starting from superstep 0.
  bool resume = false;
  /// Epoch hint from PGCH_RESUME=<n>, n in 0..INT_MAX; -1 for "auto"
  /// (scan the directory). Anything else throws std::invalid_argument.
  /// Only consulted when `resume` is true.
  int resume_epoch = -1;

  [[nodiscard]] bool enabled() const noexcept { return every > 0; }

  /// PGCH_CHECKPOINT_EVERY / PGCH_CHECKPOINT_DIR / PGCH_RESUME.
  static CheckpointConfig from_env();
};

/// Path of one rank's checkpoint file for one epoch.
std::string checkpoint_path(const std::string& dir, int rank, int epoch);

/// Durably write one rank's checkpoint: temp file, fsync, atomic
/// rename, directory fsync. Creates `dir` if needed. Throws
/// CheckpointError on any IO failure (the engine treats that as fatal —
/// a rank that cannot persist must not let the team believe it did).
void write_checkpoint(const std::string& dir, int rank, int world, int epoch,
                      const Buffer& payload);

/// Load and validate one rank's checkpoint. Throws CheckpointError on a
/// missing file, bad magic/version, rank/world/epoch mismatch,
/// truncation, or checksum mismatch (corrupt file).
Buffer load_checkpoint(const std::string& dir, int rank, int world, int epoch);

/// Validation-only probe: true iff load_checkpoint would succeed.
bool checkpoint_valid(const std::string& dir, int rank, int world, int epoch);

/// Durably publish the LATEST marker (rank 0, after the commit
/// barrier).
void write_latest_marker(const std::string& dir, int epoch, int world);

/// Epoch named by the LATEST marker, or -1 when absent/unparseable.
/// When `world` is > 0 a marker from a different world size is treated
/// as absent.
int read_latest_marker(const std::string& dir, int world);

/// Newest epoch <= `at_most` (use INT_MAX for "any") whose file for
/// `rank` validates. Walks downward through the rank's files so a
/// corrupted newest checkpoint falls back to an older committed one.
/// Returns -1 when none validates.
int latest_valid_epoch(const std::string& dir, int rank, int world,
                       int at_most);

/// Flip one payload byte of an existing checkpoint file in place (or
/// truncate it when the payload is empty) so its checksum no longer
/// matches. Fault-injection (kind=corrupt) and the rejection tests use
/// this; returns false when the file does not exist.
bool corrupt_checkpoint(const std::string& dir, int rank, int epoch);

/// Delete this rank's checkpoint files older than `keep_from_epoch`
/// (retention: the engine keeps the current + previous committed epoch
/// so a corrupt newest file still has a fallback). Best-effort.
void prune_checkpoints(const std::string& dir, int rank, int keep_from_epoch);

}  // namespace pregel::runtime
