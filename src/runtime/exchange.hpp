#pragma once
// Exchange: the framed-wire-protocol layer of the communication substrate
// (DESIGN.md sections 1 and 7).
//
// Workers write into their outboxes during channel serialize(), then the
// team collectively calls exchange(): the Transport underneath delivers
// every outbox to its peer inbox (in-process: the matrix swap of the
// paper's Fig. 2; TCP: length-prefixed bulk sends over sockets). After
// exchange() returns, channel deserialize() reads the inboxes.
//
// The Exchange itself never moves bytes. It owns the framed protocol
// state — per-rank frame lanes, frame open/patch/validate, per-channel
// byte accounting — and the per-rank traffic counters, and delegates
// buffer storage, delivery and the control lane to the Transport.
//
// Framed wire protocol (DESIGN.md section 1): each channel's payload in
// each outbox is wrapped in a ChannelFrame{channel_id, byte_len} header.
// The engine brackets a channel's serialize() between begin_frames() /
// end_frames() — which write and patch the headers and account the payload
// bytes to the channel — and its deserialize() between open_frames() /
// close_frames() — which validate the header and enforce that the channel
// consumes exactly its own payload. Misaligned reads therefore throw
// FrameMismatchError instead of silently corrupting later channels.
//
// Rank-local traffic (from == to) never leaves the process, so its frames
// ship no headers: the writer logs (channel_id, byte_len) in its own lane
// and the reader validates against that log — same loud failure, zero
// protocol overhead on the loopback path.
//
// Direction-optimized supersteps (DESIGN.md section 9) need nothing new
// from this layer: a pull-capable channel's boundary values ride its
// ordinary frame lane like any payload, and the rank's own edges produce
// a zero-byte self payload — a valid frame, costing no wire bytes, which
// is exactly how pull's "local edges are free" shows up in the
// per-channel byte accounting.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/barrier.hpp"
#include "runtime/buffer.hpp"
#include "runtime/frame.hpp"
#include "runtime/transport.hpp"

namespace pregel::runtime {

class Exchange {
 public:
  /// Frame layer over an externally owned transport (launch() and the
  /// multi-process path).
  explicit Exchange(Transport& transport) : transport_(&transport) {
    init_lanes();
  }

  /// Compatibility form: builds and owns an InProcessTransport over the
  /// given barrier — the original BufferExchange constructor shape.
  Exchange(int num_workers, Barrier& barrier)
      : owned_transport_(
            std::make_unique<InProcessTransport>(num_workers, barrier)),
        transport_(owned_transport_.get()) {
    init_lanes();
  }

  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  [[nodiscard]] int num_workers() const noexcept {
    return transport_->world_size();
  }

  [[nodiscard]] Transport& transport() noexcept { return *transport_; }

  /// Buffer that worker `from` fills with data destined for worker `to`.
  Buffer& outbox(int from, int to) { return transport_->outbox(from, to); }

  /// Buffer holding the data worker `from` sent to worker `to` in the most
  /// recent exchange.
  Buffer& inbox(int to, int from) { return transport_->inbox(to, from); }

  // ---- framed wire protocol (write side) --------------------------------
  // Only the owning rank may call its own frame functions; the per-rank
  // lane state makes them safe to call concurrently across ranks.

  /// Open channel `channel_id`'s frame in every outbox of `from`. The
  /// channel's serialize() then appends its payloads; end_frames() patches
  /// the lengths in. The self outbox gets no header — its frame is logged
  /// lane-locally instead (rank-local bytes never cross the wire).
  ///
  /// Capacity hint: each outbox is pre-reserved to fit the payload this
  /// channel shipped to the same peer in the previous round (recorded by
  /// end_frames), so steady-state supersteps append without realloc churn.
  void begin_frames(int from, int channel_id) {
    Lane& lane = lanes_[static_cast<std::size_t>(from)];
    if (lane.open_write_channel >= 0) {
      throw FrameMismatchError(
          "Exchange: begin_frames while another channel's frame is open");
    }
    check_channel_id(channel_id);
    const int workers = num_workers();
    for (int to = 0; to < workers; ++to) {
      Buffer& out = outbox(from, to);
      // For the self outbox this records where the payload begins; for
      // peers, where the header sits (the payload begins after it).
      lane.write_header_at[static_cast<std::size_t>(to)] = out.size();
      if (to != from) {
        out.write(ChannelFrame{static_cast<std::uint32_t>(channel_id), 0});
      }
      const std::size_t hint =
          lane.payload_hint[hint_index(channel_id, to, workers)];
      if (hint != 0) out.reserve(out.size() + hint);
    }
    lane.open_write_channel = channel_id;
  }

  /// Close the open frame: patch byte_len into every peer header, log the
  /// self frame, account the payload bytes to the channel, and return them
  /// (the engine attributes them to the channel's name in RunStats).
  std::uint64_t end_frames(int from, int channel_id) {
    Lane& lane = lanes_[static_cast<std::size_t>(from)];
    if (lane.open_write_channel != channel_id) {
      throw FrameMismatchError(
          "Exchange: end_frames does not match the open frame");
    }
    std::uint64_t payload_total = 0;
    const int workers = num_workers();
    for (int to = 0; to < workers; ++to) {
      Buffer& out = outbox(from, to);
      const std::size_t header_at =
          lane.write_header_at[static_cast<std::size_t>(to)];
      std::size_t payload;
      if (to == from) {
        payload = out.size() - header_at;
        lane.self_frames.push_back(
            ChannelFrame{static_cast<std::uint32_t>(channel_id),
                         static_cast<std::uint32_t>(payload)});
      } else {
        payload = out.size() - header_at - sizeof(ChannelFrame);
        out.patch_u32(header_at + sizeof(std::uint32_t),
                      static_cast<std::uint32_t>(payload));
      }
      payload_total += payload;
      // Remember the payload size as next round's pre-reserve hint.
      lane.payload_hint[hint_index(channel_id, to, workers)] = payload;
    }
    lane.channel_payload_bytes[static_cast<std::size_t>(channel_id)] +=
        payload_total;
    // Only the W-1 peer headers are protocol overhead; the self frame
    // ships none.
    lane.frame_overhead_bytes +=
        static_cast<std::uint64_t>(workers - 1) * sizeof(ChannelFrame);
    lane.open_write_channel = -1;
    return payload_total;
  }

  // ---- framed wire protocol (read side) ---------------------------------

  /// Validate and consume channel `channel_id`'s frame header in every
  /// inbox of `to` (the self inbox validates against the lane's frame log
  /// instead of a wire header), and bound each inbox's reader to the frame
  /// payload. Throws FrameMismatchError if a different channel's frame (or
  /// a truncated stream) is at the cursor — the loud failure that replaces
  /// the old silent misalignment.
  void open_frames(int to, int channel_id, const std::string& channel_name) {
    Lane& lane = lanes_[static_cast<std::size_t>(to)];
    const int workers = num_workers();
    for (int from = 0; from < workers; ++from) {
      Buffer& in = inbox(to, from);
      ChannelFrame frame{};
      if (from == to) {
        if (lane.self_read == lane.self_frames.size()) {
          throw exhausted_error(channel_id, channel_name);
        }
        frame = lane.self_frames[lane.self_read++];
      } else {
        try {
          frame = in.read<ChannelFrame>();
        } catch (const ProtocolError&) {
          throw exhausted_error(channel_id, channel_name);
        }
      }
      if (frame.channel_id != static_cast<std::uint32_t>(channel_id)) {
        throw FrameMismatchError(
            "frame protocol: channel '" + channel_name + "' (id " +
            std::to_string(channel_id) + ") found a frame of channel id " +
            std::to_string(frame.channel_id) +
            " at the read cursor — serialize/deserialize schedules diverged");
      }
      const std::size_t frame_end = in.read_pos() + frame.byte_len;
      lane.read_frame_end[static_cast<std::size_t>(from)] = frame_end;
      in.set_read_limit(frame_end);
    }
  }

  /// Verify the channel consumed exactly its payload in every inbox and
  /// lift the read limits. Throws FrameMismatchError on under-read (the
  /// over-read case already threw inside deserialize via the read limit).
  void close_frames(int to, int channel_id, const std::string& channel_name) {
    Lane& lane = lanes_[static_cast<std::size_t>(to)];
    const int workers = num_workers();
    for (int from = 0; from < workers; ++from) {
      Buffer& in = inbox(to, from);
      const std::size_t expected =
          lane.read_frame_end[static_cast<std::size_t>(from)];
      if (in.read_pos() != expected) {
        throw FrameMismatchError(
            "frame protocol: channel '" + channel_name + "' (id " +
            std::to_string(channel_id) + ") consumed " +
            std::to_string(in.read_pos()) + " bytes of a frame ending at " +
            std::to_string(expected) +
            " — deserialize() must read exactly what the peer's serialize() "
            "wrote");
      }
      in.clear_read_limit();
    }
    // Frame log fully drained: recycle it (keeps capacity).
    if (lane.self_read == lane.self_frames.size()) {
      lane.self_frames.clear();
      lane.self_read = 0;
    }
  }

  /// Collective: all workers must call. Accounts this rank's outgoing
  /// traffic (the self outbox included: rank-local traffic is traffic),
  /// then lets the transport deliver every outbox.
  void exchange(int rank) {
    Lane& lane = lanes_[static_cast<std::size_t>(rank)];
    const int workers = num_workers();
    for (int to = 0; to < workers; ++to) {
      const Buffer& out = outbox(rank, to);
      lane.sent_bytes += out.size();
      if (!out.empty()) ++lane.sent_batches;
    }
    ++lane.rounds;
    transport_->exchange(rank);
  }

  // ---- statistics (read between rounds; not thread-safe mid-exchange) ---

  /// Bytes rank `rank` handed to the transport (payload + frame headers),
  /// accumulated by exchange().
  [[nodiscard]] std::uint64_t sent_bytes(int rank) const {
    return lanes_[static_cast<std::size_t>(rank)].sent_bytes;
  }

  /// Non-empty (src, dst) buffers rank `rank` shipped.
  [[nodiscard]] std::uint64_t sent_batches(int rank) const {
    return lanes_[static_cast<std::size_t>(rank)].sent_batches;
  }

  /// Team-wide totals: the sum over every rank's lane. On a remote
  /// transport only the local rank's lane is populated, so these report
  /// this process's share; RunStats::merge_from sums the shares.
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    std::uint64_t sum = 0;
    for (const Lane& lane : lanes_) sum += lane.sent_bytes;
    return sum;
  }
  [[nodiscard]] std::uint64_t total_batches() const noexcept {
    std::uint64_t sum = 0;
    for (const Lane& lane : lanes_) sum += lane.sent_batches;
    return sum;
  }
  [[nodiscard]] std::uint64_t rounds() const noexcept {
    std::uint64_t most = 0;
    for (const Lane& lane : lanes_) most = std::max(most, lane.rounds);
    return most;
  }

  /// Payload bytes rank `from` shipped on channel `channel_id` (frame
  /// headers excluded), accumulated by end_frames().
  [[nodiscard]] std::uint64_t channel_bytes(int from, int channel_id) const {
    check_channel_id(channel_id);
    return lanes_[static_cast<std::size_t>(from)]
        .channel_payload_bytes[static_cast<std::size_t>(channel_id)];
  }

  /// Frame-header bytes rank `from` shipped (protocol overhead of the
  /// framed wire format; rank-local frames ship no headers and count
  /// nothing here).
  [[nodiscard]] std::uint64_t frame_overhead_bytes(int from) const {
    return lanes_[static_cast<std::size_t>(from)].frame_overhead_bytes;
  }

  void reset_stats() noexcept {
    for (auto& lane : lanes_) {
      std::fill(lane.channel_payload_bytes.begin(),
                lane.channel_payload_bytes.end(), 0);
      lane.frame_overhead_bytes = 0;
      lane.sent_bytes = 0;
      lane.sent_batches = 0;
      lane.rounds = 0;
    }
  }

 private:
  /// Per-rank frame bookkeeping. Each rank only ever touches its own lane,
  /// so the frame API needs no locking; padded to avoid false sharing.
  struct alignas(64) Lane {
    std::vector<std::size_t> write_header_at;  ///< per peer, open frame
    std::vector<std::size_t> read_frame_end;   ///< per peer, open frame
    std::vector<std::uint64_t> channel_payload_bytes;  ///< cumulative
    /// Previous-round payload size per (channel, peer): begin_frames
    /// pre-reserves the outbox with it (steady-state supersteps ship
    /// similar volumes, so this eliminates realloc churn mid-serialize).
    std::vector<std::size_t> payload_hint;
    /// Rank-local frame log: headers the self outbox would have carried.
    /// end_frames() appends, open_frames() validates and consumes.
    std::vector<ChannelFrame> self_frames;
    std::size_t self_read = 0;
    std::uint64_t frame_overhead_bytes = 0;
    std::uint64_t sent_bytes = 0;
    std::uint64_t sent_batches = 0;
    std::uint64_t rounds = 0;
    int open_write_channel = -1;
  };

  void init_lanes() {
    const auto workers = static_cast<std::size_t>(num_workers());
    lanes_.resize(workers);
    for (auto& lane : lanes_) {
      lane.write_header_at.assign(workers, 0);
      lane.read_frame_end.assign(workers, 0);
      lane.channel_payload_bytes.assign(kMaxChannels, 0);
      lane.payload_hint.assign(kMaxChannels * workers, 0);
    }
  }

  [[nodiscard]] static std::size_t hint_index(int channel_id, int to,
                                              int workers) {
    return static_cast<std::size_t>(channel_id) *
               static_cast<std::size_t>(workers) +
           static_cast<std::size_t>(to);
  }

  static void check_channel_id(int channel_id) {
    if (channel_id < 0 || channel_id >= kMaxChannels) {
      throw FrameMismatchError("Exchange: channel id out of range");
    }
  }

  static FrameMismatchError exhausted_error(int channel_id,
                                            const std::string& channel_name) {
    return FrameMismatchError(
        "frame protocol: inbox exhausted where channel '" + channel_name +
        "' (id " + std::to_string(channel_id) +
        ") expected a frame header — an earlier channel over- or under-read "
        "its frame, or the peer's stream was truncated");
  }

  std::unique_ptr<InProcessTransport> owned_transport_;
  Transport* transport_;
  std::vector<Lane> lanes_;
};

/// Historical name: the exchange used to own the W x W buffer matrix
/// itself. The matrix now lives in InProcessTransport; the protocol and
/// accounting layer kept the old name as an alias.
using BufferExchange = Exchange;

}  // namespace pregel::runtime
