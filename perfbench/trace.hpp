#pragma once
// Tracing for the benchmark suite: a fixed-capacity span buffer written
// as Chrome trace-event JSON, and a Transport decorator that times every
// call a rank makes into the runtime layer.
//
// Spans are recorded from the benchmark's own code, around calls into the
// engine's public entry points; nothing inside src/ is instrumented. The
// decorator forwards every virtual of runtime::Transport to the real
// transport, so a job run over it is the same job, plus two clock reads
// per transport call.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "runtime/transport.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One complete span ("ph": "X" in the trace-event format). `name` and
/// `cat` point at string literals or at SpanBuffer::intern() copies.
struct Span {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::int32_t pid = 0;  ///< process: the TCP rank, 0 in-process
  std::int32_t tid = 0;  ///< thread: the rank, or kMainThread
  std::int32_t job = -1;
};

/// Thread id of the benchmark's own (non-rank) thread in the trace.
inline constexpr std::int32_t kMainThread = 100;

/// Append-only span store with a capacity fixed at construction. Rank
/// threads append concurrently (each claims a slot with one atomic
/// increment); spans past the capacity are counted, not stored. Read only
/// after every appending thread has joined.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity) : spans_(capacity) {}

  void add(const char* name, const char* cat, std::int32_t tid,
           std::int32_t job, Clock::time_point t0, Clock::time_point t1) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= spans_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    spans_[i] = Span{name, cat, ns(t0), ns(t1) - ns(t0), pid_, tid, job};
  }

  /// Process id stamped on spans recorded from here on.
  void set_pid(std::int32_t pid) { pid_ = pid; }

  [[nodiscard]] std::size_t size() const {
    return std::min(next_.load(), spans_.size());
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_.load(); }
  [[nodiscard]] const Span& operator[](std::size_t i) const {
    return spans_[i];
  }

  /// A stable copy of a span name received from another process.
  const char* intern(const std::string& name) {
    return interned_.insert(name).first->c_str();
  }

  /// Absorb spans recorded by another process (TCP peers ship theirs to
  /// rank 0 at exit; their names must come from intern()). Over-capacity
  /// spans are counted as dropped.
  void absorb(const std::vector<Span>& spans, std::uint64_t dropped) {
    for (const Span& s : spans) {
      const std::size_t i = next_.fetch_add(1);
      if (i >= spans_.size()) {
        dropped_.fetch_add(1);
      } else {
        spans_[i] = s;
      }
    }
    dropped_.fetch_add(dropped);
  }

  /// Chrome trace-event JSON: opens in Perfetto (ui.perfetto.dev) and
  /// chrome://tracing. Timestamps are microseconds of the steady clock,
  /// which every process on one host shares.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\",\n"
                    " \"otherData\": {\"spans\": %zu, \"dropped\": %llu},\n"
                    " \"traceEvents\": [\n",
                 size(), static_cast<unsigned long long>(dropped()));
    for (std::size_t i = 0; i < size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": %d, "
                   "\"args\": {\"job\": %d}}\n",
                   i == 0 ? "  " : ", ", s.name, s.cat,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3, s.pid, s.tid, s.job);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static std::int64_t ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::int32_t pid_ = 0;
  std::set<std::string> interned_;
};

/// Times one span; records it on destruction when a buffer is attached.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, const char* cat,
             std::int32_t tid, std::int32_t job)
      : buffer_(buffer), name_(name), cat_(cat), tid_(tid), job_(job),
        t0_(Clock::now()) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) {
      buffer_->add(name_, cat_, tid_, job_, t0_, Clock::now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  const char* name_;
  const char* cat_;
  std::int32_t tid_;
  std::int32_t job_;
  Clock::time_point t0_;
};

/// What one rank did inside the transport during one job.
struct alignas(64) RankCalls {
  std::uint64_t exchange_calls = 0;
  std::uint64_t collective_calls = 0;  ///< barrier, all-reduce, gather, bcast
  double blocked_s = 0.0;              ///< time inside every timed call
  double exchange_s = 0.0;             ///< time inside exchange()
  std::uint64_t remote_bytes = 0;      ///< bytes sent to peers
  /// Per exchange round: max(bytes sent to peers, bytes received from
  /// peers) — this rank's side of the bottleneck-link formula.
  std::vector<std::uint64_t> round_link_bytes;
  std::vector<double> collective_us;  ///< duration of each collective
  /// Time between successive exchange() returns.
  std::vector<double> round_ms;
  Clock::time_point last_exchange_end{};
  bool exchanged = false;
};

/// Transport decorator: forwards every call to `inner`, timing each one
/// per rank. With a span buffer attached each timed call is also a span.
///
/// outbox()/inbox() are buffer accessors the exchange layer calls many
/// times per round, and supports_pipeline() has no rank argument; those
/// three are forwarded untimed.
class TracingTransport final : public pregel::runtime::Transport {
 public:
  /// Per-rank call records exist for every rank of the team; a TCP
  /// process fills only its own.
  TracingTransport(pregel::runtime::Transport& inner, SpanBuffer* spans,
                   std::int32_t job)
      : inner_(inner),
        spans_(spans),
        job_(job),
        calls_(static_cast<std::size_t>(inner.world_size())) {}

  [[nodiscard]] const RankCalls& calls(int rank) const {
    return calls_[static_cast<std::size_t>(rank)];
  }

  [[nodiscard]] int world_size() const noexcept override {
    return inner_.world_size();
  }
  pregel::runtime::Buffer& outbox(int from, int to) override {
    return inner_.outbox(from, to);
  }
  pregel::runtime::Buffer& inbox(int to, int from) override {
    return inner_.inbox(to, from);
  }

  void exchange(int rank) override {
    RankCalls& c = lane(rank);
    std::uint64_t sent = 0;
    for (int peer = 0; peer < world_size(); ++peer) {
      if (peer != rank) sent += inner_.outbox(rank, peer).size();
    }
    const auto t0 = Clock::now();
    inner_.exchange(rank);
    const auto t1 = Clock::now();
    std::uint64_t received = 0;
    for (int peer = 0; peer < world_size(); ++peer) {
      if (peer != rank) received += inner_.inbox(rank, peer).size();
    }
    ++c.exchange_calls;
    c.exchange_s += seconds_between(t0, t1);
    c.remote_bytes += sent;
    c.round_link_bytes.push_back(std::max(sent, received));
    if (c.exchanged) {
      c.round_ms.push_back(seconds_between(c.last_exchange_end, t1) * 1e3);
    }
    c.last_exchange_end = t1;
    c.exchanged = true;
    finish(c, rank, "exchange", t0, t1);
  }

  void barrier(int rank) override {
    collective(rank, "barrier", [&] { inner_.barrier(rank); });
  }
  std::uint64_t allreduce_or(int rank, std::uint64_t local) override {
    std::uint64_t out = 0;
    collective(rank, "allreduce_or",
               [&] { out = inner_.allreduce_or(rank, local); });
    return out;
  }
  std::uint64_t allreduce_sum(int rank, std::uint64_t local) override {
    std::uint64_t out = 0;
    collective(rank, "allreduce_sum",
               [&] { out = inner_.allreduce_sum(rank, local); });
    return out;
  }
  std::vector<pregel::runtime::Buffer> gather_to_root(
      int rank, const pregel::runtime::Buffer& local) override {
    std::vector<pregel::runtime::Buffer> out;
    collective(rank, "gather_to_root",
               [&] { out = inner_.gather_to_root(rank, local); });
    return out;
  }
  void broadcast_from_root(int rank, pregel::runtime::Buffer* data) override {
    collective(rank, "broadcast_from_root",
               [&] { inner_.broadcast_from_root(rank, data); });
  }

  void set_heartbeat_window(int rank, bool open) override {
    other(rank, "heartbeat_window",
          [&] { inner_.set_heartbeat_window(rank, open); });
  }
  [[nodiscard]] bool supports_pipeline() const noexcept override {
    return inner_.supports_pipeline();
  }
  void pipeline_begin(int rank) override {
    other(rank, "pipeline_begin", [&] { inner_.pipeline_begin(rank); });
  }
  void pipeline_send(int rank, int peer,
                     const pregel::runtime::ChunkHeader& header,
                     const void* payload) override {
    other(rank, "pipeline_send",
          [&] { inner_.pipeline_send(rank, peer, header, payload); });
  }
  void pipeline_flush_sends(int rank) override {
    other(rank, "pipeline_flush_sends",
          [&] { inner_.pipeline_flush_sends(rank); });
  }
  bool pipeline_recv(int rank, int peer,
                     pregel::runtime::DecodedChunk* out) override {
    bool more = false;
    other(rank, "pipeline_recv",
          [&] { more = inner_.pipeline_recv(rank, peer, out); });
    return more;
  }
  void pipeline_end(int rank) override {
    other(rank, "pipeline_end", [&] { inner_.pipeline_end(rank); });
  }

 private:
  RankCalls& lane(int rank) { return calls_[static_cast<std::size_t>(rank)]; }

  void finish(RankCalls& c, int rank, const char* name, Clock::time_point t0,
              Clock::time_point t1) {
    c.blocked_s += seconds_between(t0, t1);
    if (spans_ != nullptr) spans_->add(name, "runtime", rank, job_, t0, t1);
  }

  template <typename Fn>
  void collective(int rank, const char* name, Fn&& fn) {
    RankCalls& c = lane(rank);
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    ++c.collective_calls;
    c.collective_us.push_back(seconds_between(t0, t1) * 1e6);
    finish(c, rank, name, t0, t1);
  }

  /// The heartbeat window and pipeline_* calls: timed, not counted.
  template <typename Fn>
  void other(int rank, const char* name, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    finish(lane(rank), rank, name, t0, Clock::now());
  }

  pregel::runtime::Transport& inner_;
  SpanBuffer* spans_;
  std::int32_t job_;
  std::vector<RankCalls> calls_;
};

}  // namespace perfbench
