#pragma once
// Channel: the paper's replacement for Pregel's monolithic message passing
// (Fig. 3). A channel owns one communication pattern; the worker drives
// every registered channel through rounds of
//   serialize() -> buffer exchange -> deserialize() -> again()?
// inside each superstep (Fig. 4). Optimizations are implemented as
// channels, so composing optimizations = allocating several channels.

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/direction.hpp"
#include "graph/distributed.hpp"
#include "runtime/buffer.hpp"
#include "runtime/exchange.hpp"
#include "runtime/transport.hpp"

namespace pregel::core {

/// Below this many staged/received items a channel's serialize/delivery
/// runs its one code path inline as a single slot instead of forking the
/// pool: every slot count produces identical bytes and results, so
/// the switch is free, and tiny rounds (late sparse supersteps,
/// propagation tails) skip the fork/join cost that would otherwise
/// dominate them.
inline constexpr std::size_t kParallelCommMinItems = 4096;

namespace detail {

/// Contiguous share of `n` items owned by `slot` of `slots`: the
/// [n*slot/slots, n*(slot+1)/slots) range-partition every parallel comm
/// path uses — ranges ascend with the slot index and cover [0, n)
/// exactly, so per-slot work concatenated in slot order is the sequential
/// order.
inline std::pair<std::uint64_t, std::uint64_t> item_range(std::uint64_t n,
                                                          int slots,
                                                          int slot) {
  const auto s = static_cast<std::uint64_t>(slots);
  const auto t = static_cast<std::uint64_t>(slot);
  return {n * t / s, n * (t + 1) / s};
}

/// Reject a peer-supplied local index outside [0, num_local): a corrupt or
/// forged payload must fail loudly, never write out of bounds or vanish
/// silently. `owner` names the channel (or engine) in the error.
inline void check_local_index(std::uint64_t lidx, std::uint64_t num_local,
                              std::string_view owner) {
  if (lidx >= num_local) {
    throw runtime::ProtocolError(
        std::string(owner) + ": peer payload names local index " +
        std::to_string(lidx) + ", outside the " + std::to_string(num_local) +
        "-vertex slice");
  }
}

/// One round's peer sections of raw (lidx, value) wire records — the
/// single delivery loop of the per-message channels and the baseline
/// engines. read() records a section (u32 count, then the records) and
/// skips it; for_each(lo, hi, ...) visits every record whose lidx falls
/// in [lo, hi), in peer order and then payload order. That is the
/// range-partitioned shape run_comm_partitioned fans out, and with one
/// slot ([0, num_local)) the plain sequential scan.
template <typename Wire>
class WireSpans {
 public:
  explicit WireSpans(int peers) : spans_(static_cast<std::size_t>(peers)) {}

  /// Record peer `from`'s section of `in`; returns its record count.
  std::uint32_t read(runtime::Buffer& in, int from) {
    const auto n = in.read<std::uint32_t>();
    spans_[static_cast<std::size_t>(from)] = {in.read_ptr(), n};
    in.skip(std::size_t{n} * sizeof(Wire));
    return n;
  }

  /// fn(wire) for every recorded wire with lidx in [lo, hi). Any lidx at
  /// or past `num_local` throws a ProtocolError naming `owner` (the slot
  /// whose range ends at num_local sees every such record).
  template <typename Fn>
  void for_each(std::uint32_t lo, std::uint32_t hi, std::uint32_t num_local,
                std::string_view owner, Fn&& fn) const {
    for (const auto& [ptr, n] : spans_) {
      const std::byte* p = ptr;
      for (std::uint32_t i = 0; i < n; ++i, p += sizeof(Wire)) {
        Wire wire;
        std::memcpy(&wire, p, sizeof(Wire));
        if (wire.lidx < lo || wire.lidx >= hi) {
          check_local_index(wire.lidx, num_local, owner);
          continue;
        }
        fn(wire);
      }
    }
  }

 private:
  std::vector<std::pair<const std::byte*, std::uint32_t>> spans_;
};

/// Everything a worker rank shares with its team for one run. Created by
/// launch(); reached by Worker's constructor through a thread-local so the
/// user's worker subclass keeps the paper's `Channel c{this, ...}` shape.
/// The transport doubles as the control lane: barriers and the
/// quiescence/channel-activity votes go through it, so the same engine
/// code runs over threads and over sockets.
struct Env {
  const graph::DistributedGraph* dg = nullptr;
  runtime::Exchange* exchange = nullptr;
  runtime::Transport* transport = nullptr;
  int rank = 0;
};

inline thread_local Env* t_env = nullptr;

/// Local index of the vertex the calling thread is currently computing.
/// Thread-local so the parallel compute phase (DESIGN.md section 3) gives
/// every compute thread its own implicit current vertex.
inline thread_local std::uint32_t t_current_lidx = 0;

/// Slot index of the calling thread inside the rank's ComputePool (0 for
/// the rank thread / sequential mode). Identifies the *executing thread*:
/// algorithms key reusable per-thread compute scratch by it
/// (WorkerBase::compute_slot()).
inline thread_local int t_compute_slot = 0;

/// Index of the compute *chunk* the calling thread is currently running
/// (0 outside a parallel compute phase). Channels key their staging by
/// this, NOT by the slot: chunks are contiguous ascending vertex ranges,
/// so staging replayed in chunk order is the sequential vertex-order call
/// sequence regardless of which slot executed each chunk — that is what
/// keeps the work-stealing schedule (PGCH_STEAL) bitwise-identical to the
/// pinned one. Under the pinned schedule chunk index == slot index.
inline thread_local int t_compute_chunk = 0;

/// Per-compute-chunk staging log for channels whose compute-time APIs
/// append to shared state. open(C) in begin_compute(); while active(),
/// stage(v) appends to the calling thread's current chunk; replay(fn) in
/// end_compute() feeds every staged value to fn in chunk order — the
/// sequential vertex-order call sequence — and deactivates the log.
template <typename T>
class ChunkStagedLog {
 public:
  void open(int num_chunks) {
    logs_.resize(static_cast<std::size_t>(num_chunks));
    active_ = true;
  }

  [[nodiscard]] bool active() const noexcept { return active_; }

  void stage(const T& v) {
    logs_[static_cast<std::size_t>(t_compute_chunk)].push_back(v);
  }

  template <typename Fn>
  void replay(Fn&& fn) {
    active_ = false;
    for (auto& log : logs_) {
      for (const T& v : log) fn(v);
      log.clear();  // keeps capacity for the next superstep
    }
  }

 private:
  bool active_ = false;
  std::vector<std::vector<T>> logs_;
};

}  // namespace detail

class WorkerBase;

/// Base class of every channel (standard and optimized). Derived classes
/// implement the four core functions of the paper's Fig. 3; the worker
/// guarantees that within one communication round serialize() runs on all
/// workers, then buffers are exchanged, then deserialize() runs, and that
/// a channel stays in the round loop while *any* worker's again() is true.
///
/// Wire contract: when a channel participates in a round it must write one
/// self-describing payload (possibly empty) to *every* peer outbox and
/// read one payload from *every* peer inbox — channels are serialized in
/// registration order, which is identical on every worker, so payloads
/// align without worker-level framing.
class Channel {
 public:
  Channel(WorkerBase* worker, std::string name);
  virtual ~Channel() = default;

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Called once before superstep 1.
  virtual void initialize() {}
  /// Write staged data into the worker's outboxes.
  virtual void serialize() = 0;
  /// Read received data from the worker's inboxes.
  virtual void deserialize() = 0;

  // Parallel communication phase (DESIGN.md section 8): serialize() and
  // deserialize() are each ONE code path that fans over the worker's
  // pool through EngineBase::run_comm_partitioned — serialize over
  // contiguous destination-rank ranges writing into pre-sized buffer
  // segments, delivery over contiguous local-vertex ranges with every slot
  // scanning the peer inboxes in peer order and applying only its own
  // range (the per-vertex application order — peer order, then in-payload
  // order — is the one-slot order, so no atomics on values are needed).
  // At compute_threads() == 1, or below kParallelCommMinItems, the same code
  // runs inline as a single slot covering everything. Channels whose
  // delivery order feeds later wire bytes (Propagation's BFS queue) keep
  // a plain sequential deserialize().

  /// Return true to request another communication round this superstep.
  virtual bool again() { return false; }

  // ---- parallel compute phase (DESIGN.md sections 3, 11) ----------------
  // The worker brackets a chunked multi-thread compute phase between
  // begin_compute(C) and end_compute(). In between, per-vertex channel
  // APIs may be called concurrently; detail::t_compute_chunk identifies
  // the contiguous ascending vertex chunk the caller is running (each
  // chunk is executed by exactly one thread). Channels whose staging is
  // shared stage such calls per chunk and replay them in chunk order in
  // end_compute() — chunks are contiguous and ascending, so the replayed
  // op sequence is byte-for-byte the sequential one and results stay
  // bitwise identical no matter which slot executed which chunk (pinned
  // or work-stealing schedule alike).

  /// Enter parallel staging mode with `num_chunks` compute chunks.
  virtual void begin_compute(int /*num_chunks*/) {}
  /// Merge per-chunk staging (in chunk order) and leave parallel mode.
  virtual void end_compute() {}

  // ---- direction-optimizing compute (DESIGN.md section 9) ----------------
  // A pull-capable channel can run a superstep in gather mode: instead of
  // staging/serializing per-edge messages, senders publish one value and
  // every destination vertex reads its in-neighbors' published values
  // directly (rank-local edges ship zero wire bytes; remote publishers
  // arrive via a compact per-rank boundary exchange). The engine decides
  // the direction collectively each superstep and announces it here
  // BEFORE the compute phase; channels that never pull ignore the call.

  /// True when this channel implements the pull protocol. Must be a
  /// constant for the channel's lifetime and identical on every rank (the
  /// engine's collective direction decision keys off it).
  [[nodiscard]] virtual bool pull_capable() const { return false; }
  /// Announce this superstep's direction (only ever kPull on channels
  /// whose pull_capable() is true).
  virtual void set_direction(Direction /*dir*/) {}

  // ---- checkpoint/restore (DESIGN.md section 12) -------------------------
  // A checkpointable channel persists every bit of state that outlives a
  // superstep boundary (delivered-but-unconsumed messages, aggregator
  // results) so a restored run replays bitwise-identically. Channels with
  // no cross-superstep state implement these as no-ops; the default
  // refuses, so enabling PGCH_CHECKPOINT_EVERY on a worker with a
  // non-checkpointable channel fails loudly at the first checkpoint
  // instead of restoring garbage after a crash.

  /// Append this channel's cross-superstep state to `out`. Called at the
  /// superstep boundary (after deliver, before the next compute).
  virtual void save_state(runtime::Buffer& /*out*/) {
    throw std::logic_error("channel '" + name_ +
                           "' does not support checkpointing "
                           "(PGCH_CHECKPOINT_EVERY requires save_state/"
                           "restore_state)");
  }

  /// Restore state written by save_state() on a freshly initialized
  /// channel of the same shape.
  virtual void restore_state(runtime::Buffer& /*in*/) {
    throw std::logic_error("channel '" + name_ +
                           "' does not support checkpointing "
                           "(PGCH_CHECKPOINT_EVERY requires save_state/"
                           "restore_state)");
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 protected:
  WorkerBase& w() const noexcept { return *worker_; }

 private:
  WorkerBase* worker_;
  std::string name_;
};

}  // namespace pregel::core
