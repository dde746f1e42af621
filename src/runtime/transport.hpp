#pragma once
// Transport: the byte-moving and collective-synchronization substrate
// under the framed Exchange (DESIGN.md section 7).
//
// The Exchange (runtime/exchange.hpp) owns the framed wire protocol —
// frame open/patch/validate and per-channel byte accounting — but never
// moves a byte itself. A Transport provides:
//
//   * the data plane: per-(src, dst) outbox/inbox buffers and the
//     collective exchange() that delivers every outbox to its peer inbox;
//   * the control lane: barrier() and the u64 all-reduces the engines'
//     quiescence vote and channel activity mask ride on, plus the
//     gather/broadcast pair launch() uses to fold per-rank RunStats.
//
// Two backends exist: InProcessTransport below (workers are threads, the
// exchange is the W x W matrix swap of the original BufferExchange,
// preserved byte-for-byte) and TcpTransport (runtime/tcp_transport.hpp;
// workers are processes, buffers travel as length-prefixed bulk sends
// over persistent sockets).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/barrier.hpp"
#include "runtime/buffer.hpp"
#include "runtime/chunk.hpp"
#include "runtime/env.hpp"

namespace pregel::runtime {

/// Which transport backs a run. kInProcess: one process, workers are
/// threads, buffer exchange is a matrix swap. kTcp: one process per rank,
/// buffers cross real sockets.
enum class TransportKind { kInProcess, kTcp };

/// Parse a PGCH_SIM_NET_MBPS value into bytes/second (unset, empty or
/// <= 0 = disabled). Anything but a finite number throws
/// std::invalid_argument (parse_double).
inline double parse_sim_net_mbps(const char* text) {
  if (text == nullptr || *text == '\0') return 0.0;
  const double mbps = parse_double("PGCH_SIM_NET_MBPS", text);
  return mbps > 0.0 ? mbps * 1024.0 * 1024.0 : 0.0;
}

/// Simulated per-worker network bandwidth in MB/s, read once from the
/// PGCH_SIM_NET_MBPS environment variable (0 / unset = disabled).
///
/// In-process workers are threads, so buffer exchange is a memcpy: the
/// transit time a real cluster pays (the paper's testbed: 750 Mbps links)
/// is absent, and optimizations whose benefit is *message volume* would
/// show up only in the byte counters, not in runtime. When enabled, every
/// exchange round blocks for max_w(bytes_in(w), bytes_out(w)) / bandwidth
/// — the bottleneck-link time of that round. See DESIGN.md section 1.
/// The TCP transport ignores it: its wire time is real.
inline double simulated_bandwidth_bytes_per_sec() {
  static const double value =
      parse_sim_net_mbps(std::getenv("PGCH_SIM_NET_MBPS"));
  return value;
}

/// Abstract data-plane + control-lane substrate. All operations are
/// collective: every rank of the team must call them in the same order
/// (the engines' lock-step superstep loop guarantees this).
class Transport {
 public:
  virtual ~Transport() = default;

  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] virtual int world_size() const noexcept = 0;

  // ---- data plane -------------------------------------------------------

  /// Buffer that rank `from` fills with data destined for rank `to`. A
  /// remote transport serves only `from == local rank`.
  virtual Buffer& outbox(int from, int to) = 0;

  /// Buffer holding what rank `from` sent to rank `to` in the most recent
  /// exchange. A remote transport serves only `to == local rank`.
  virtual Buffer& inbox(int to, int from) = 0;

  /// Collective: deliver every rank's outboxes to the peer inboxes, clear
  /// the new outboxes, rewind the new inboxes.
  virtual void exchange(int rank) = 0;

  // ---- control lane -----------------------------------------------------

  /// Collective barrier with no data movement.
  virtual void barrier(int rank) = 0;

  /// All-reduce a 64-bit value with bitwise OR (the engines' channel
  /// activity mask and quiescence vote).
  virtual std::uint64_t allreduce_or(int rank, std::uint64_t local) = 0;

  /// All-reduce a 64-bit value with addition.
  virtual std::uint64_t allreduce_sum(int rank, std::uint64_t local) = 0;

  /// Quiescence vote: true iff any rank's `local` is true.
  bool vote_any(int rank, bool local) {
    return allreduce_or(rank, local ? 1u : 0u) != 0;
  }

  /// Liveness window (DESIGN.md section 12): the engine opens it around
  /// phases where the calling thread touches no socket (the compute
  /// phase), so a transport with heartbeats enabled (PGCH_HEARTBEAT_MS)
  /// may emit control-lane heartbeats that keep peers' silence deadlines
  /// (PGCH_IO_TIMEOUT_MS) fed through a long compute. Closing the window
  /// blocks until no heartbeat is in flight. Default: no-op (in-process
  /// teams share a fate anyway).
  virtual void set_heartbeat_window(int /*rank*/, bool /*open*/) {}

  /// Collective gather: rank 0 receives every rank's blob (indexed by
  /// rank, its own included); other ranks get an empty vector.
  virtual std::vector<Buffer> gather_to_root(int rank, const Buffer& local) = 0;

  /// Collective broadcast: rank 0's `*data` replaces every other rank's.
  virtual void broadcast_from_root(int rank, Buffer* data) = 0;

  // ---- retired pipelined-round interface ---------------------------------
  // Communication rounds are bulk (DESIGN.md section 10): no engine calls
  // these and no transport in this library overrides them. The "not
  // supported" stubs stay only because the benchmark's tracing decorator
  // (perfbench/trace.hpp) forwards them.

  [[nodiscard]] virtual bool supports_pipeline() const noexcept {
    return false;
  }
  virtual void pipeline_begin(int /*rank*/) { unsupported(); }
  virtual void pipeline_send(int /*rank*/, int /*peer*/,
                             const ChunkHeader& /*header*/,
                             const void* /*payload*/) {
    unsupported();
  }
  virtual void pipeline_flush_sends(int /*rank*/) { unsupported(); }
  virtual bool pipeline_recv(int /*rank*/, int /*peer*/,
                             DecodedChunk* /*out*/) {
    unsupported();
  }
  virtual void pipeline_end(int /*rank*/) { unsupported(); }

 private:
  [[noreturn]] static void unsupported() {
    throw TransportError("transport: pipelined rounds are not supported");
  }
};

/// The thread-team backend: today's matrix-swap-at-barrier, carrying the
/// W x W outbox/inbox double matrix that BufferExchange used to own (the
/// pairwise buffer exchange of the paper's Fig. 2). One instance is
/// shared by all ranks of the team.
class InProcessTransport final : public Transport {
 public:
  /// Owns its barrier (the launch() path).
  explicit InProcessTransport(int num_workers)
      : InProcessTransport(num_workers, nullptr) {}

  /// Shares an externally owned barrier (tests that sequence their own
  /// collectives against it).
  InProcessTransport(int num_workers, Barrier& barrier)
      : InProcessTransport(num_workers, &barrier) {}

  [[nodiscard]] int world_size() const noexcept override {
    return num_workers_;
  }

  Buffer& outbox(int from, int to) override {
    return (*out_)[index(from, to)];
  }
  Buffer& inbox(int to, int from) override { return (*in_)[index(from, to)]; }

  /// Swap the matrices at the barrier: the outboxes everyone just wrote
  /// become the inboxes everyone reads next, atomically with respect to
  /// the team. New outboxes carry data consumed a full round ago and are
  /// recycled (clear() keeps capacity, so steady-state rounds do not
  /// reallocate).
  void exchange(int /*rank*/) override {
    barrier_->arrive_and_wait([this] {
      simulate_network_transit();
      std::swap(out_, in_);
      for (Buffer& b : *out_) b.clear();
      for (Buffer& b : *in_) b.rewind();
    });
  }

  void barrier(int /*rank*/) override { barrier_->arrive_and_wait(); }

  /// Fail every collective of the team — current and later — with
  /// TransportError (every collective here, the all-reduces included,
  /// is a round of the one barrier). launch() calls it when a rank
  /// throws, so the surviving ranks fail instead of hanging.
  void abort() { barrier_->abort(); }

  std::uint64_t allreduce_or(int rank, std::uint64_t local) override {
    return allreduce(rank, local,
                     [](std::uint64_t a, std::uint64_t b) { return a | b; });
  }
  std::uint64_t allreduce_sum(int rank, std::uint64_t local) override {
    return allreduce(rank, local,
                     [](std::uint64_t a, std::uint64_t b) { return a + b; });
  }

  std::vector<Buffer> gather_to_root(int rank, const Buffer& local) override {
    gather_slots_[static_cast<std::size_t>(rank)] = &local;
    barrier_->arrive_and_wait();
    std::vector<Buffer> result;
    if (rank == 0) {
      result.reserve(gather_slots_.size());
      for (const Buffer* slot : gather_slots_) result.push_back(*slot);
    }
    // Keep every slot alive until the root has copied it.
    barrier_->arrive_and_wait();
    return result;
  }

  void broadcast_from_root(int rank, Buffer* data) override {
    if (rank == 0) bcast_src_ = data;
    barrier_->arrive_and_wait();
    if (rank != 0) *data = *bcast_src_;
    barrier_->arrive_and_wait();
  }

  /// Override the simulated link bandwidth (bytes/second, 0 disables);
  /// defaults to the PGCH_SIM_NET_MBPS environment variable. Set before
  /// the run — the throttle reads it inside the exchange barrier.
  void set_simulated_bandwidth(double bytes_per_sec) noexcept {
    sim_bandwidth_ = bytes_per_sec;
  }

 private:
  InProcessTransport(int num_workers, Barrier* external_barrier)
      : num_workers_(num_workers),
        owned_barrier_(external_barrier == nullptr
                           ? std::make_unique<Barrier>(num_workers)
                           : nullptr),
        barrier_(external_barrier != nullptr ? external_barrier
                                             : owned_barrier_.get()),
        mat_a_(static_cast<std::size_t>(num_workers) * num_workers),
        mat_b_(static_cast<std::size_t>(num_workers) * num_workers),
        out_(&mat_a_),
        in_(&mat_b_),
        reduce_slots_(static_cast<std::size_t>(num_workers)),
        gather_slots_(static_cast<std::size_t>(num_workers), nullptr) {}

  [[nodiscard]] std::size_t index(int from, int to) const noexcept {
    return static_cast<std::size_t>(from) * num_workers_ + to;
  }

  /// One barrier round per reduce; the result slot is only rewritten by
  /// the completion of the *next* barrier generation, so reading it after
  /// release is safe (same argument as AllReducer).
  template <typename BinaryOp>
  std::uint64_t allreduce(int rank, std::uint64_t local, BinaryOp op) {
    reduce_slots_[static_cast<std::size_t>(rank)].value = local;
    barrier_->arrive_and_wait([&] {
      std::uint64_t acc = reduce_slots_[0].value;
      for (std::size_t i = 1; i < reduce_slots_.size(); ++i) {
        acc = op(acc, reduce_slots_[i].value);
      }
      reduce_result_ = acc;
    });
    return reduce_result_;
  }

  /// Block for the bottleneck-link transit time of this round (no-op when
  /// the bandwidth is 0). Runs inside the barrier completion, so the
  /// whole team waits — exactly like a synchronous network flush.
  /// Rank-local (i == j) buffers never cross the network and are free.
  void simulate_network_transit() const {
    if (sim_bandwidth_ <= 0.0) return;
    std::uint64_t worst = 0;
    for (int w = 0; w < num_workers_; ++w) {
      std::uint64_t sent = 0, received = 0;
      for (int peer = 0; peer < num_workers_; ++peer) {
        if (peer == w) continue;
        sent += (*out_)[index(w, peer)].size();
        received += (*out_)[index(peer, w)].size();
      }
      worst = std::max({worst, sent, received});
    }
    if (worst == 0) return;
    const auto delay =
        std::chrono::duration<double>(static_cast<double>(worst) /
                                      sim_bandwidth_);
    std::this_thread::sleep_for(delay);
  }

  // Pad reduce slots so concurrent rank writes do not false-share.
  struct alignas(64) ReduceSlot {
    std::uint64_t value = 0;
  };

  const int num_workers_;
  std::unique_ptr<Barrier> owned_barrier_;
  Barrier* barrier_;
  std::vector<Buffer> mat_a_;
  std::vector<Buffer> mat_b_;
  std::vector<Buffer>* out_;
  std::vector<Buffer>* in_;
  std::vector<ReduceSlot> reduce_slots_;
  std::uint64_t reduce_result_ = 0;
  std::vector<const Buffer*> gather_slots_;
  Buffer* bcast_src_ = nullptr;
  double sim_bandwidth_ = simulated_bandwidth_bytes_per_sec();
};

}  // namespace pregel::runtime
