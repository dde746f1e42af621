#include "runtime/tcp_transport.hpp"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "runtime/env.hpp"

#ifndef _WIN32
#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace pregel::runtime {

namespace {

constexpr std::uint8_t kMsgData = 1;     ///< one exchange-round outbox
constexpr std::uint8_t kMsgControl = 2;  ///< one u64 of the control lane
constexpr std::uint8_t kMsgBlob = 3;     ///< gather/broadcast payload
constexpr std::uint8_t kMsgHeartbeat = 4;  ///< empty liveness beacon

/// Connection handshake, sent by the connecting (higher-rank accepts /
/// lower-rank listens is NOT the scheme — see connect_mesh: rank r
/// connects to every lower rank and accepts every higher one), and
/// answered by the acceptor so both ends validate the pairing.
struct Hello {
  std::uint32_t magic = 0x54434750;  // "PGCT" little-endian
  std::uint32_t version = 1;
  std::uint32_t world = 0;
  std::uint32_t rank = 0;
};

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError("TcpTransport: " + what + ": " +
                       std::strerror(errno));
}

#ifndef _WIN32

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Resolve host:port to an IPv4/IPv6 sockaddr via getaddrinfo.
struct ResolvedAddr {
  sockaddr_storage addr{};
  socklen_t len = 0;
  int family = AF_INET;
};

ResolvedAddr resolve(const TcpEndpoint& ep) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string port = std::to_string(ep.port);
  const int rc = ::getaddrinfo(ep.host.c_str(), port.c_str(), &hints,
                               &result);
  if (rc != 0 || result == nullptr) {
    throw TransportError("TcpTransport: cannot resolve " + ep.host + ":" +
                         port + ": " + ::gai_strerror(rc));
  }
  ResolvedAddr out;
  std::memcpy(&out.addr, result->ai_addr, result->ai_addrlen);
  out.len = static_cast<socklen_t>(result->ai_addrlen);
  out.family = result->ai_family;
  ::freeaddrinfo(result);
  return out;
}

double monotonic_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Full-length EINTR-safe send; also usable off the main thread (the
/// pipelined sender threads), unlike the member wrapper.
void raw_send_all(int fd, const void* data, std::size_t n, int peer) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t sent = ::send(fd, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      throw_errno("send to rank " + std::to_string(peer));
    }
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
}

/// Full-length EINTR-safe receive. `timeout_ms > 0` bounds the silence
/// gap, not the total transfer: every received byte resets the clock, so
/// a slow-but-alive peer never trips it, while a hung or dead one
/// surfaces as TransportError within one gap instead of blocking forever.
void raw_recv_all(int fd, void* data, std::size_t n, int peer,
                  int timeout_ms = 0) {
  auto* p = static_cast<char*>(data);
  while (n > 0) {
    if (timeout_ms > 0) {
      pollfd pfd{fd, POLLIN, 0};
      int rc;
      do {
        rc = ::poll(&pfd, 1, timeout_ms);
      } while (rc < 0 && errno == EINTR);
      if (rc < 0) throw_errno("poll for rank " + std::to_string(peer));
      if (rc == 0) {
        throw TransportError(
            "TcpTransport: no data from rank " + std::to_string(peer) +
            " for " + std::to_string(timeout_ms) +
            " ms (peer hung or network stalled; PGCH_IO_TIMEOUT_MS)");
      }
    }
    const ssize_t got = ::recv(fd, p, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv from rank " + std::to_string(peer));
    }
    if (got == 0) {
      throw TransportError("TcpTransport: rank " + std::to_string(peer) +
                           " closed the connection mid-message (peer "
                           "crashed or stream truncated)");
    }
    p += got;
    n -= static_cast<std::size_t>(got);
  }
}

/// Encoded chunks queued per peer before backpressure blocks the sender
/// (pipeline_send copies header+payload, so this bounds the copy memory).
constexpr std::size_t kSendQueueCapBytes = 4u << 20;

/// Decoded chunks queued per peer before the receiver thread stops
/// draining the socket (the main thread pops them region by region).
constexpr std::size_t kRecvQueueCapChunks = 256;

#endif  // !_WIN32

}  // namespace

#ifdef _WIN32

struct TcpPeerPipe {};

// The TCP backend is POSIX-only; Windows builds keep linking but refuse
// to construct it (the in-process transport remains available).
TcpTransport::TcpTransport(int rank, int world_size, const TcpEndpoint&)
    : rank_(rank), world_(world_size) {
  throw TransportError("TcpTransport requires POSIX sockets");
}
TcpTransport::~TcpTransport() = default;
void TcpTransport::connect_mesh(const std::vector<TcpEndpoint>&, double) {}
Buffer& TcpTransport::outbox(int, int) { throw TransportError("unsupported"); }
Buffer& TcpTransport::inbox(int, int) { throw TransportError("unsupported"); }
void TcpTransport::exchange(int) {}
void TcpTransport::barrier(int) {}
std::uint64_t TcpTransport::allreduce_or(int, std::uint64_t) { return 0; }
std::uint64_t TcpTransport::allreduce_sum(int, std::uint64_t) { return 0; }
std::vector<Buffer> TcpTransport::gather_to_root(int, const Buffer&) {
  return {};
}
void TcpTransport::broadcast_from_root(int, Buffer*) {}
bool TcpTransport::supports_pipeline() const noexcept { return false; }
void TcpTransport::pipeline_begin(int) {
  throw TransportError("unsupported");
}
void TcpTransport::pipeline_send(int, int, const ChunkHeader&, const void*) {
  throw TransportError("unsupported");
}
void TcpTransport::pipeline_flush_sends(int) {
  throw TransportError("unsupported");
}
bool TcpTransport::pipeline_recv(int, int, DecodedChunk*) {
  throw TransportError("unsupported");
}
void TcpTransport::pipeline_end(int) { throw TransportError("unsupported"); }
void TcpTransport::ensure_pipes() {}
void TcpTransport::stop_pipes() noexcept {}
TcpPeerPipe& TcpTransport::pipe(int) { throw TransportError("unsupported"); }
void TcpTransport::pace_wire(std::size_t) {}
void TcpTransport::set_heartbeat_window(int, bool) {}
void TcpTransport::heartbeat_main() {}
void TcpTransport::stop_heartbeat() noexcept {}

#else  // POSIX implementation

/// Per-peer pipelined-round machinery. One sender thread drains a bounded
/// queue of pre-encoded chunks into the socket; one receiver thread runs
/// the ChunkDecoder over exact-size socket reads and fills a bounded queue
/// of decoded chunks the main thread pops. Both threads park on cv_thread
/// between rounds, so outside a pipelined round the socket is exclusively
/// the main thread's (bulk exchange, control lane) — the round protocol
/// guarantees the hand-over points: pipeline_begin() arms after the last
/// control message of the previous round, and the round-last chunk is the
/// final round byte written/read before control traffic resumes.
///
/// All flags and queues are guarded by mu; the socket calls run unlocked
/// but are sequenced against the main thread's socket use through those
/// flags (send_drained / recv_done), so every cross-thread access has a
/// happens-before edge.
struct TcpPeerPipe {
  int fd = -1;
  int peer = -1;
  TcpTransport* owner = nullptr;  ///< pacing hook (simulated link)

  std::mutex mu;
  std::condition_variable cv_thread;  ///< wakes the sender/receiver threads
  std::condition_variable cv_caller;  ///< wakes main-thread waits

  // Send side.
  std::deque<std::vector<std::byte>> sendq;  ///< encoded header+payload
  std::size_t sendq_bytes = 0;
  bool send_armed = false;    ///< round open: sender drains the queue
  bool send_closing = false;  ///< flush requested: park once drained
  bool send_drained = true;   ///< queue empty and last write completed
  std::exception_ptr send_error;

  // Receive side.
  std::deque<DecodedChunk> recvq;
  bool recv_armed = false;  ///< round open: receiver reads the socket
  bool recv_done = true;    ///< round-last chunk decoded and queued
  std::exception_ptr recv_error;
  ChunkDecoder decoder;  ///< touched only by the receiver while armed

  bool stop = false;
  std::thread sender;
  std::thread receiver;

  void sender_main() {
    std::unique_lock<std::mutex> lk(mu);
    while (true) {
      cv_thread.wait(lk, [&] {
        return stop || (send_armed && (!sendq.empty() || send_closing));
      });
      if (stop) return;
      if (!sendq.empty()) {
        std::vector<std::byte> msg = std::move(sendq.front());
        sendq.pop_front();
        sendq_bytes -= msg.size();
        cv_caller.notify_all();
        lk.unlock();
        try {
          // On a simulated link the chunk's transmission "completes" only
          // after size/bandwidth seconds; delaying the (loopback-fast)
          // write until then makes the receiver observe link-paced
          // arrival, which is what gives pipelined rounds a realistic
          // wire span for serialize/deliver to hide behind.
          owner->pace_wire(msg.size());
          raw_send_all(fd, msg.data(), msg.size(), peer);
          lk.lock();
        } catch (...) {
          lk.lock();
          send_error = std::current_exception();
          send_armed = false;
          send_drained = true;  // nothing more will go out
          cv_caller.notify_all();
        }
        continue;
      }
      // Armed, queue empty, flush requested: the round's sends are done.
      send_armed = false;
      send_closing = false;
      send_drained = true;
      cv_caller.notify_all();
    }
  }

  void receiver_main() {
    std::vector<std::byte> scratch;
    std::unique_lock<std::mutex> lk(mu);
    while (true) {
      cv_thread.wait(lk, [&] { return stop || recv_armed; });
      if (stop) return;
      lk.unlock();
      try {
        while (true) {
          // Exact-size reads driven by the decoder: never pull a byte past
          // the round-last chunk (the next bytes are control-lane traffic).
          const std::size_t need = decoder.bytes_needed();
          if (need == 0) break;
          scratch.resize(need);
          raw_recv_all(fd, scratch.data(), need, peer,
                       owner->io_timeout_ms_);
          decoder.feed(scratch.data(), need);
          DecodedChunk c;
          while (decoder.next(&c)) {
            lk.lock();
            cv_thread.wait(
                lk, [&] { return stop || recvq.size() < kRecvQueueCapChunks; });
            if (stop) return;
            recvq.push_back(std::move(c));
            cv_caller.notify_all();
            lk.unlock();
          }
        }
        lk.lock();
        recv_armed = false;
        recv_done = true;
        cv_caller.notify_all();
      } catch (...) {
        lk.lock();
        recv_error = std::current_exception();
        recv_armed = false;
        recv_done = true;
        cv_caller.notify_all();
      }
    }
  }
};

TcpTransport::TcpTransport(int rank, int world_size,
                           const TcpEndpoint& listen)
    : rank_(rank),
      world_(world_size),
      fds_(static_cast<std::size_t>(world_size), -1),
      out_(static_cast<std::size_t>(world_size)),
      in_(static_cast<std::size_t>(world_size)) {
  if (world_size <= 0) {
    throw std::invalid_argument("TcpTransport: world_size must be >= 1");
  }
  if (rank < 0 || rank >= world_size) {
    throw std::invalid_argument("TcpTransport: rank out of range");
  }

  // Parsed per transport so a recovery attempt (a fresh transport in the
  // same process) picks up any changes; <= 0 means off.
  io_timeout_ms_ = env_int("PGCH_IO_TIMEOUT_MS", 0, 0);
  heartbeat_ms_ = env_int("PGCH_HEARTBEAT_MS", 0, 0);
  connect_retries_ = env_int("PGCH_CONNECT_RETRIES", 0, 0);

  if (world_ == 1) {
    connected_ = true;  // no sockets needed
    return;
  }

  // MSG_NOSIGNAL covers our own sends, but a write on a dying socket from
  // code that forgot the flag (or a libc path that strips it) must surface
  // as EPIPE -> TransportError, never kill the process. Once per process.
  static const bool sigpipe_ignored = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)sigpipe_ignored;

  const ResolvedAddr bound = resolve(listen);
  // A freshly vacated port (a crashed rank being respawned, or a test
  // that just tore down a mesh) can linger in TIME_WAIT past what
  // SO_REUSEADDR forgives, or still be held by the dying process for a
  // beat. Retry the bind with deterministic exponential backoff before
  // giving up — the same policy the test harness used to carry.
  constexpr int kBindAttempts = 5;
  for (int attempt = 0;; ++attempt) {
    listen_fd_ = ::socket(bound.family, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&bound.addr),
               bound.len) == 0) {
      break;
    }
    const int bind_errno = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (bind_errno != EADDRINUSE || attempt + 1 >= kBindAttempts) {
      errno = bind_errno;
      throw_errno("bind " + listen.host + ":" + std::to_string(listen.port));
    }
    ::usleep(static_cast<useconds_t>(25'000) << attempt);
  }
  if (::listen(listen_fd_, world_) != 0) throw_errno("listen");

  sockaddr_storage actual{};
  socklen_t alen = sizeof(actual);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&actual),
                    &alen) != 0) {
    throw_errno("getsockname");
  }
  listen_port_ = ntohs(actual.ss_family == AF_INET6
                           ? reinterpret_cast<sockaddr_in6*>(&actual)->
                                 sin6_port
                           : reinterpret_cast<sockaddr_in*>(&actual)->
                                 sin_port);
}

TcpTransport::~TcpTransport() {
  stop_heartbeat();
  stop_pipes();
  for (const int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpTransport::connect_mesh(const std::vector<TcpEndpoint>& peers,
                                double timeout_s) {
  if (world_ == 1) return;
  if (connected_) {
    throw TransportError("TcpTransport: connect_mesh called twice");
  }
  if (peers.size() != static_cast<std::size_t>(world_)) {
    throw std::invalid_argument(
        "TcpTransport: need one endpoint per rank (got " +
        std::to_string(peers.size()) + " for world size " +
        std::to_string(world_) + ")");
  }
  const double deadline = monotonic_seconds() + timeout_s;
  const Hello expect{};

  // Initiate to every lower rank (they are listening; retry while they
  // come up)...
  for (int peer = 0; peer < rank_; ++peer) {
    const ResolvedAddr target = resolve(peers[static_cast<std::size_t>(peer)]);
    int fd = -1;
    // Deterministic exponential backoff between attempts (25 ms doubling,
    // capped at 1 s) bounded by the wall-clock deadline and, when
    // PGCH_CONNECT_RETRIES is set, by an attempt count — so a peer that
    // will never come up fails fast and reproducibly instead of spinning
    // out the whole timeout.
    for (int attempt = 0;; ++attempt) {
      fd = ::socket(target.family, SOCK_STREAM, 0);
      if (fd < 0) throw_errno("socket");
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&target.addr),
                    target.len) == 0) {
        break;
      }
      ::close(fd);
      fd = -1;
      const std::string where =
          " to rank " + std::to_string(peer) + " at " +
          peers[static_cast<std::size_t>(peer)].host + ":" +
          std::to_string(peers[static_cast<std::size_t>(peer)].port);
      if (connect_retries_ > 0 && attempt + 1 >= connect_retries_) {
        throw TransportError("TcpTransport: rank " + std::to_string(rank_) +
                             " gave up connecting" + where + " after " +
                             std::to_string(attempt + 1) +
                             " attempts (PGCH_CONNECT_RETRIES)");
      }
      if (monotonic_seconds() > deadline) {
        throw TransportError("TcpTransport: rank " + std::to_string(rank_) +
                             " timed out connecting" + where);
      }
      const useconds_t delay_us =
          attempt < 6 ? (static_cast<useconds_t>(25'000) << attempt)
                      : 1'000'000;
      ::usleep(delay_us);
    }
    set_nodelay(fd);
    fds_[static_cast<std::size_t>(peer)] = fd;
    Hello mine = expect;
    mine.world = static_cast<std::uint32_t>(world_);
    mine.rank = static_cast<std::uint32_t>(rank_);
    send_all(fd, &mine, sizeof(mine), peer);
    Hello theirs{};
    recv_all(fd, &theirs, sizeof(theirs), peer);
    if (theirs.magic != expect.magic || theirs.version != expect.version ||
        theirs.world != mine.world ||
        theirs.rank != static_cast<std::uint32_t>(peer)) {
      throw TransportError("TcpTransport: bad handshake from rank " +
                           std::to_string(peer));
    }
  }

  // ...and accept every higher rank.
  for (int pending = world_ - 1 - rank_; pending > 0; --pending) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const double remaining = deadline - monotonic_seconds();
    const int rc = ::poll(&pfd, 1,
                          remaining > 0 ? static_cast<int>(remaining * 1000)
                                        : 0);
    if (rc <= 0) {
      throw TransportError("TcpTransport: rank " + std::to_string(rank_) +
                           " timed out waiting for " +
                           std::to_string(pending) +
                           " higher-rank connection(s)");
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) throw_errno("accept");
    set_nodelay(fd);
    Hello theirs{};
    recv_all(fd, &theirs, sizeof(theirs), /*peer=*/-1);
    if (theirs.magic != expect.magic || theirs.version != expect.version ||
        theirs.world != static_cast<std::uint32_t>(world_) ||
        theirs.rank <= static_cast<std::uint32_t>(rank_) ||
        theirs.rank >= static_cast<std::uint32_t>(world_) ||
        fds_[theirs.rank] != -1) {
      ::close(fd);
      throw TransportError("TcpTransport: bad handshake on accepted "
                           "connection");
    }
    Hello mine = expect;
    mine.world = static_cast<std::uint32_t>(world_);
    mine.rank = static_cast<std::uint32_t>(rank_);
    send_all(fd, &mine, sizeof(mine), static_cast<int>(theirs.rank));
    fds_[theirs.rank] = fd;
  }

  ::close(listen_fd_);
  listen_fd_ = -1;
  connected_ = true;
}

void TcpTransport::check_local(int rank, const char* what) const {
  if (rank != rank_) {
    throw std::logic_error(std::string("TcpTransport: ") + what +
                           " for rank " + std::to_string(rank) +
                           " on the transport of rank " +
                           std::to_string(rank_) +
                           " — a remote transport serves only its own rank");
  }
}

void TcpTransport::require_mesh() const {
  if (!connected_) {
    throw TransportError("TcpTransport: connect_mesh() has not completed");
  }
}

Buffer& TcpTransport::outbox(int from, int to) {
  check_local(from, "outbox");
  if (to < 0 || to >= world_) {
    throw std::out_of_range("TcpTransport: outbox peer out of range");
  }
  return out_[static_cast<std::size_t>(to)];
}

Buffer& TcpTransport::inbox(int to, int from) {
  check_local(to, "inbox");
  if (from < 0 || from >= world_) {
    throw std::out_of_range("TcpTransport: inbox peer out of range");
  }
  return in_[static_cast<std::size_t>(from)];
}

void TcpTransport::exchange(int rank) {
  check_local(rank, "exchange");
  require_mesh();

  // Rank-local loop: swap in place — the zero-copy equivalent of the
  // in-process matrix flip (the old inbox contents were consumed a round
  // ago and are discarded by the clear below).
  out_[static_cast<std::size_t>(rank_)].swap(
      in_[static_cast<std::size_t>(rank_)]);
  out_[static_cast<std::size_t>(rank_)].clear();
  in_[static_cast<std::size_t>(rank_)].rewind();

  // Peers in increasing rank order; within a pair the lower rank sends
  // first. See the header comment for the deadlock-freedom argument.
  for (int peer = 0; peer < world_; ++peer) {
    if (peer == rank_) continue;
    Buffer& out = out_[static_cast<std::size_t>(peer)];
    Buffer& in = in_[static_cast<std::size_t>(peer)];
    if (rank_ < peer) {
      send_msg(peer, kMsgData, out.data(), out.size());
      recv_msg(peer, kMsgData, &in);
    } else {
      recv_msg(peer, kMsgData, &in);
      send_msg(peer, kMsgData, out.data(), out.size());
    }
    out.clear();
    in.rewind();
  }
}

void TcpTransport::barrier(int rank) { (void)allreduce_or(rank, 0); }

std::uint64_t TcpTransport::allreduce_or(int rank, std::uint64_t local) {
  return allreduce(rank, local, Op::kOr);
}

std::uint64_t TcpTransport::allreduce_sum(int rank, std::uint64_t local) {
  return allreduce(rank, local, Op::kSum);
}

std::uint64_t TcpTransport::allreduce(int rank, std::uint64_t local, Op op) {
  check_local(rank, "allreduce");
  require_mesh();
  if (world_ == 1) return local;
  // Fold through rank 0: everyone contributes, rank 0 reduces and
  // re-broadcasts. One round trip on W-1 sockets — fine for the small
  // worlds this targets; swap in a tree if W grows.
  if (rank_ == 0) {
    std::uint64_t acc = local;
    for (int peer = 1; peer < world_; ++peer) {
      const std::uint64_t v = recv_control(peer);
      acc = op == Op::kOr ? (acc | v) : (acc + v);
    }
    for (int peer = 1; peer < world_; ++peer) send_control(peer, acc);
    return acc;
  }
  send_control(0, local);
  return recv_control(0);
}

std::vector<Buffer> TcpTransport::gather_to_root(int rank,
                                                 const Buffer& local) {
  check_local(rank, "gather_to_root");
  require_mesh();
  std::vector<Buffer> result;
  if (rank_ == 0) {
    result.resize(static_cast<std::size_t>(world_));
    result[0].write_bytes(local.data(), local.size());
    for (int peer = 1; peer < world_; ++peer) {
      recv_msg(peer, kMsgBlob, &result[static_cast<std::size_t>(peer)]);
    }
  } else {
    send_msg(0, kMsgBlob, local.data(), local.size());
  }
  return result;
}

void TcpTransport::broadcast_from_root(int rank, Buffer* data) {
  check_local(rank, "broadcast_from_root");
  require_mesh();
  if (rank_ == 0) {
    for (int peer = 1; peer < world_; ++peer) {
      send_msg(peer, kMsgBlob, data->data(), data->size());
    }
  } else {
    recv_msg(0, kMsgBlob, data);
    data->rewind();
  }
}

void TcpTransport::send_all(int fd, const void* data, std::size_t n,
                            int peer) {
  raw_send_all(fd, data, n, peer);
}

void TcpTransport::recv_all(int fd, void* data, std::size_t n, int peer) {
  raw_recv_all(fd, data, n, peer, io_timeout_ms_);
}

void TcpTransport::send_msg(int peer, std::uint8_t type, const void* data,
                            std::uint64_t len) {
  const int fd = fds_[static_cast<std::size_t>(peer)];
  char header[sizeof(std::uint8_t) + sizeof(std::uint64_t)];
  std::memcpy(header, &type, sizeof(type));
  std::memcpy(header + sizeof(type), &len, sizeof(len));
  send_all(fd, header, sizeof(header), peer);
  if (len > 0) send_all(fd, data, len, peer);
}

std::uint64_t TcpTransport::recv_msg(int peer, std::uint8_t type,
                                     Buffer* into) {
  const int fd = fds_[static_cast<std::size_t>(peer)];
  char header[sizeof(std::uint8_t) + sizeof(std::uint64_t)];
  std::uint8_t got_type = 0;
  std::uint64_t len = 0;
  // Heartbeats are liveness beacons a busy peer interleaves between real
  // messages; their only effect is having reset the silence deadline of
  // the recv_all that read them. Skip to the first real message.
  do {
    recv_all(fd, header, sizeof(header), peer);
    std::memcpy(&got_type, header, sizeof(got_type));
    std::memcpy(&len, header + sizeof(got_type), sizeof(len));
  } while (got_type == kMsgHeartbeat);
  if (got_type != type) {
    throw TransportError(
        "TcpTransport: expected message type " + std::to_string(type) +
        " from rank " + std::to_string(peer) + " but received type " +
        std::to_string(got_type) +
        " — the collective call sequences diverged");
  }
  into->clear();
  if (len > 0) {
    recv_all(fd, into->extend(static_cast<std::size_t>(len)),
             static_cast<std::size_t>(len), peer);
  }
  return len;
}

void TcpTransport::send_control(int peer, std::uint64_t value) {
  const int fd = fds_[static_cast<std::size_t>(peer)];
  char msg[sizeof(std::uint8_t) + sizeof(std::uint64_t) +
           sizeof(std::uint64_t)];
  const std::uint8_t type = kMsgControl;
  const std::uint64_t len = sizeof(value);
  std::memcpy(msg, &type, sizeof(type));
  std::memcpy(msg + sizeof(type), &len, sizeof(len));
  std::memcpy(msg + sizeof(type) + sizeof(len), &value, sizeof(value));
  send_all(fd, msg, sizeof(msg), peer);
}

std::uint64_t TcpTransport::recv_control(int peer) {
  Buffer b;
  const std::uint64_t len = recv_msg(peer, kMsgControl, &b);
  if (len != sizeof(std::uint64_t)) {
    throw TransportError("TcpTransport: malformed control message from rank " +
                         std::to_string(peer));
  }
  return b.read<std::uint64_t>();
}

// ---- heartbeats -----------------------------------------------------------

void TcpTransport::set_heartbeat_window(int rank, bool open) {
  check_local(rank, "set_heartbeat_window");
  if (world_ == 1 || heartbeat_ms_ <= 0 || !connected_) return;
  std::lock_guard<std::mutex> lk(hb_mu_);
  // Taking hb_mu_ is the synchronization: the heartbeat thread writes only
  // while holding it, so once close acquires the lock no beat is mid-wire
  // and none will start — the sockets are the main thread's again.
  if (open && !hb_thread_.joinable()) {
    hb_thread_ = std::thread([this] { heartbeat_main(); });
  }
  hb_open_ = open;
  hb_cv_.notify_all();
}

void TcpTransport::heartbeat_main() {
  std::unique_lock<std::mutex> lk(hb_mu_);
  while (true) {
    hb_cv_.wait(lk, [&] { return hb_stop_ || hb_open_; });
    if (hb_stop_) return;
    for (int peer = 0; peer < world_ && hb_open_; ++peer) {
      if (peer == rank_) continue;
      char header[sizeof(std::uint8_t) + sizeof(std::uint64_t)];
      const std::uint8_t type = kMsgHeartbeat;
      const std::uint64_t len = 0;
      std::memcpy(header, &type, sizeof(type));
      std::memcpy(header + sizeof(type), &len, sizeof(len));
      try {
        raw_send_all(fds_[static_cast<std::size_t>(peer)], header,
                     sizeof(header), peer);
      } catch (const TransportError&) {
        // Peer is gone. Stop beating — the main thread will hit the same
        // failure on its own next send/receive and report it properly.
        hb_open_ = false;
      }
    }
    hb_cv_.wait_for(lk, std::chrono::milliseconds(heartbeat_ms_),
                    [&] { return hb_stop_ || !hb_open_; });
  }
}

void TcpTransport::stop_heartbeat() noexcept {
  {
    std::lock_guard<std::mutex> lk(hb_mu_);
    hb_stop_ = true;
    hb_open_ = false;
  }
  hb_cv_.notify_all();
  if (hb_thread_.joinable()) hb_thread_.join();
}

// ---- pipelined rounds -----------------------------------------------------

bool TcpTransport::supports_pipeline() const noexcept { return world_ > 1; }

TcpPeerPipe& TcpTransport::pipe(int peer) {
  if (pipes_.empty() || peer < 0 || peer >= world_ || peer == rank_ ||
      pipes_[static_cast<std::size_t>(peer)] == nullptr) {
    throw std::logic_error("TcpTransport: no pipelined lane for peer " +
                           std::to_string(peer));
  }
  return *pipes_[static_cast<std::size_t>(peer)];
}

void TcpTransport::ensure_pipes() {
  if (!pipes_.empty()) return;
  pipes_.resize(static_cast<std::size_t>(world_));
  for (int peer = 0; peer < world_; ++peer) {
    if (peer == rank_) continue;
    auto p = std::make_unique<TcpPeerPipe>();
    p->fd = fds_[static_cast<std::size_t>(peer)];
    p->peer = peer;
    p->owner = this;
    p->sender = std::thread([pp = p.get()] { pp->sender_main(); });
    p->receiver = std::thread([pp = p.get()] { pp->receiver_main(); });
    pipes_[static_cast<std::size_t>(peer)] = std::move(p);
  }
}

void TcpTransport::pace_wire(std::size_t bytes) {
  const double bw = sim_bandwidth_.load(std::memory_order_relaxed);
  if (bw <= 0.0 || bytes == 0) return;
  std::chrono::steady_clock::time_point due;
  {
    // One shared transmission deadline: every sender thread appends its
    // chunk's airtime to the same schedule, so a rank's aggregate egress
    // never exceeds the simulated link no matter how many peers it is
    // streaming to concurrently.
    std::lock_guard<std::mutex> lk(pace_mu_);
    const auto now = std::chrono::steady_clock::now();
    if (pace_next_ < now) pace_next_ = now;
    pace_next_ +=
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(static_cast<double>(bytes) / bw));
    due = pace_next_;
  }
  std::this_thread::sleep_until(due);
}

void TcpTransport::stop_pipes() noexcept {
  for (auto& p : pipes_) {
    if (p == nullptr) continue;
    {
      std::lock_guard<std::mutex> lk(p->mu);
      p->stop = true;
    }
    p->cv_thread.notify_all();
    p->cv_caller.notify_all();
    // Unblock a sender/receiver parked inside send()/recv(): after
    // shutdown both return an error/EOF, the thread records it and exits
    // via the stop flag.
    ::shutdown(p->fd, SHUT_RDWR);
    if (p->sender.joinable()) p->sender.join();
    if (p->receiver.joinable()) p->receiver.join();
  }
  pipes_.clear();
}

void TcpTransport::pipeline_begin(int rank) {
  check_local(rank, "pipeline_begin");
  require_mesh();
  if (!supports_pipeline()) {
    throw TransportError("TcpTransport: pipelined rounds need world > 1");
  }
  ensure_pipes();
  for (auto& up : pipes_) {
    if (up == nullptr) continue;
    TcpPeerPipe& p = *up;
    std::lock_guard<std::mutex> lk(p.mu);
    if (p.send_error) std::rethrow_exception(p.send_error);
    if (p.recv_error) std::rethrow_exception(p.recv_error);
    if (!p.send_drained || !p.recv_done) {
      throw TransportError(
          "TcpTransport: pipeline_begin while the previous round is still "
          "in flight");
    }
    p.decoder.reset();
    p.recvq.clear();
    p.recv_done = false;
    p.recv_armed = true;
    p.send_drained = false;
    p.send_closing = false;
    p.send_armed = true;
    p.cv_thread.notify_all();
  }
}

void TcpTransport::pipeline_send(int rank, int peer,
                                 const ChunkHeader& header,
                                 const void* payload) {
  check_local(rank, "pipeline_send");
  TcpPeerPipe& p = pipe(peer);
  std::vector<std::byte> msg(sizeof(ChunkHeader) + header.len);
  std::memcpy(msg.data(), &header, sizeof(ChunkHeader));
  if (header.len > 0) {
    std::memcpy(msg.data() + sizeof(ChunkHeader), payload, header.len);
  }
  std::unique_lock<std::mutex> lk(p.mu);
  // Bounded queue: admit when empty (a chunk larger than the cap must
  // still go through), else only while under the cap.
  p.cv_caller.wait(lk, [&] {
    return p.send_error || p.sendq_bytes == 0 ||
           p.sendq_bytes + msg.size() <= kSendQueueCapBytes;
  });
  if (p.send_error) std::rethrow_exception(p.send_error);
  p.sendq_bytes += msg.size();
  p.sendq.push_back(std::move(msg));
  p.cv_thread.notify_all();
}

void TcpTransport::pipeline_flush_sends(int rank) {
  check_local(rank, "pipeline_flush_sends");
  for (auto& up : pipes_) {
    if (up == nullptr) continue;
    TcpPeerPipe& p = *up;
    std::lock_guard<std::mutex> lk(p.mu);
    if (p.send_error) std::rethrow_exception(p.send_error);
    if (p.send_armed) {
      p.send_closing = true;
      p.cv_thread.notify_all();
    }
  }
  for (auto& up : pipes_) {
    if (up == nullptr) continue;
    TcpPeerPipe& p = *up;
    std::unique_lock<std::mutex> lk(p.mu);
    p.cv_caller.wait(lk, [&] { return p.send_drained; });
    if (p.send_error) std::rethrow_exception(p.send_error);
  }
}

bool TcpTransport::pipeline_recv(int rank, int peer, DecodedChunk* out) {
  check_local(rank, "pipeline_recv");
  TcpPeerPipe& p = pipe(peer);
  std::unique_lock<std::mutex> lk(p.mu);
  p.cv_caller.wait(lk, [&] {
    return !p.recvq.empty() || p.recv_error || p.recv_done;
  });
  if (!p.recvq.empty()) {
    *out = std::move(p.recvq.front());
    p.recvq.pop_front();
    p.cv_thread.notify_all();  // queue space for the receiver thread
    return true;
  }
  if (p.recv_error) std::rethrow_exception(p.recv_error);
  return false;
}

void TcpTransport::pipeline_end(int rank) {
  check_local(rank, "pipeline_end");
  for (auto& up : pipes_) {
    if (up == nullptr) continue;
    TcpPeerPipe& p = *up;
    std::unique_lock<std::mutex> lk(p.mu);
    // The caller consumed the whole round, but the receiver thread may
    // still be between handing over the round-last chunk and recording
    // completion — wait for it to park instead of racing it (once the
    // decoder has produced round-last, its next bytes_needed() is zero,
    // so the receiver cannot block on the socket again). A chunk showing
    // up in the queue here means the caller did NOT consume the whole
    // round: that is a protocol error, reported without waiting.
    p.cv_caller.wait(lk, [&] {
      return p.send_error != nullptr || p.recv_error != nullptr ||
             !p.recvq.empty() || (p.send_drained && p.recv_done);
    });
    if (p.send_error) std::rethrow_exception(p.send_error);
    if (p.recv_error) std::rethrow_exception(p.recv_error);
    if (!p.recvq.empty()) {
      throw TransportError(
          "TcpTransport: pipeline_end with undelivered chunks");
    }
  }
}

#endif  // _WIN32

}  // namespace pregel::runtime
