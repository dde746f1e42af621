#pragma once
// Chunked streaming format of pipelined rounds (DESIGN.md section 10).
//
// In a pipelined round a rank does not ship each peer outbox as one bulk
// message after every channel has serialized. Instead, as each channel's
// serialize() completes, the freshly written slice of every peer outbox is
// chopped into fixed-size chunks and streamed immediately, so the wire is
// busy while later channels are still serializing and while the receiver
// is already delivering earlier channels.
//
// Each chunk is a ChunkHeader followed by `len` payload bytes. Payload
// bytes are exactly the bulk path's outbox bytes, in the same order — the
// chunk layer frames the stream, it never reorders it. Per (sender,
// receiver) pair the stream is a sequence of channel regions in strictly
// increasing channel order; within a region chunk seq numbers count up
// from 0, the region's final chunk carries kChunkChannelEnd, and the
// round's final chunk additionally carries kChunkRoundLast. That trailing
// flag is how the receiver knows the round is over without a separate
// terminator message, which matters because the same socket carries
// control-lane traffic right after the round.
//
// ChunkDecoder is the receiver-side state machine. It is deliberately
// strict: bad magic, unknown flags, out-of-range channel, oversize len,
// seq discontinuity, non-monotonic regions, bytes after the round-last
// chunk, or a stream that ends mid-chunk all raise FrameMismatchError —
// the same loud failure the bulk frame protocol gives misaligned reads.
// bytes_needed() tells a socket driver exactly how many bytes to read
// next, so the decoder never consumes bytes past the round's last chunk
// (those belong to the control lane).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/env.hpp"
#include "runtime/frame.hpp"

namespace pregel::runtime {

/// Flag bits of ChunkHeader::flags.
inline constexpr std::uint16_t kChunkChannelEnd = 1;  ///< last chunk of region
inline constexpr std::uint16_t kChunkRoundLast = 2;   ///< last chunk of round

/// Wire header of one chunk of a pipelined round's stream.
struct ChunkHeader {
  std::uint32_t magic;    ///< kChunkMagic, guards against stream misalignment
  std::uint16_t channel;  ///< channel region this chunk belongs to
  std::uint16_t flags;    ///< kChunkChannelEnd | kChunkRoundLast
  std::uint32_t seq;      ///< position within the region, counting from 0
  std::uint32_t len;      ///< payload bytes following this header
};
static_assert(sizeof(ChunkHeader) == 16);

inline constexpr std::uint32_t kChunkMagic = 0x4B434750;  // "PGCK"

/// Upper bound on a single chunk's payload. A len above this is treated as
/// corruption (it would otherwise make the decoder allocate attacker-chosen
/// amounts before any payload byte arrives).
inline constexpr std::size_t kMaxChunkPayload = 8u << 20;

/// Default streaming chunk size. Large enough that header overhead is
/// negligible, small enough that serialize/wire/delivery overlap at
/// superstep granularity.
inline constexpr std::size_t kDefaultChunkBytes = 256u << 10;

/// PGCH_CHUNK_BYTES: streaming chunk size for pipelined rounds, clamped to
/// [64, kMaxChunkPayload]. Tests set it tiny to force many chunks per
/// region.
inline std::size_t chunk_bytes_from_env() {
  return static_cast<std::size_t>(
      env_int("PGCH_CHUNK_BYTES", static_cast<int>(kDefaultChunkBytes), 64,
              static_cast<int>(kMaxChunkPayload)));
}

/// PGCH_PIPELINE=1: opt in to pipelined rounds on transports that support
/// them (bulk rounds remain the default and the parity oracle).
inline bool pipeline_from_env() {
  const char* env = std::getenv("PGCH_PIPELINE");
  return env != nullptr &&
         (std::string_view(env) == "1" || std::string_view(env) == "true" ||
          std::string_view(env) == "on");
}

/// Chop a slice of one channel region into chunks of at most `chunk_bytes`
/// and call fn(header, payload_ptr) per chunk. Seq numbers continue from
/// `seq_start`, so a region can stream across several calls as its bytes
/// are produced (mid-serialize streaming). With `close_region` false the
/// call emits nothing for n == 0; a closing call always emits at least one
/// chunk (an empty region ships a zero-len channel-end chunk), so the
/// receiver sees every serialized channel and the round-last flag always
/// has a chunk to ride on. `last_region` marks the round's final region
/// and is honored only on the closing call.
template <typename Fn>
void for_each_chunk_partial(int channel, const std::byte* data, std::size_t n,
                            std::size_t chunk_bytes, std::uint32_t seq_start,
                            bool close_region, bool last_region, Fn&& fn) {
  if (!close_region && n == 0) return;
  std::uint32_t seq = seq_start;
  std::size_t off = 0;
  do {
    const std::size_t len = std::min(chunk_bytes, n - off);
    const bool region_end = close_region && off + len == n;
    ChunkHeader h{};
    h.magic = kChunkMagic;
    h.channel = static_cast<std::uint16_t>(channel);
    h.flags = region_end ? kChunkChannelEnd : std::uint16_t{0};
    if (region_end && last_region) h.flags |= kChunkRoundLast;
    h.seq = seq++;
    h.len = static_cast<std::uint32_t>(len);
    fn(static_cast<const ChunkHeader&>(h), data + off);
    off += len;
  } while (off < n);
}

/// One-shot form: the whole region in one call, seq counting from 0.
template <typename Fn>
void for_each_chunk(int channel, const std::byte* data, std::size_t n,
                    std::size_t chunk_bytes, bool last_region, Fn&& fn) {
  for_each_chunk_partial(channel, data, n, chunk_bytes, 0, true, last_region,
                         std::forward<Fn>(fn));
}

/// One reassembled chunk handed from the decoder to delivery.
struct DecodedChunk {
  ChunkHeader header{};
  std::vector<std::byte> payload;
};

/// Validating reassembler for one (sender, receiver) stream of one round.
/// feed() bytes in any granularity, pop chunks with next(); reset() arms
/// it for the next round. See the file comment for what it rejects.
class ChunkDecoder {
 public:
  /// Append raw stream bytes. Throws if the round already ended — a
  /// correct sender never ships round bytes after the round-last chunk.
  void feed(const void* p, std::size_t n) {
    if (n == 0) return;
    if (complete_) {
      throw FrameMismatchError(
          "chunk stream: bytes after the round-last chunk");
    }
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  /// Pop the next fully buffered chunk into *out. Returns false when more
  /// bytes are needed (or the round is complete). Header and stream-order
  /// validation happen here.
  bool next(DecodedChunk* out) {
    if (complete_ || !ensure_header()) return false;
    if (avail() < sizeof(ChunkHeader) + header_.len) return false;
    validate_order(header_);
    out->header = header_;
    out->payload.assign(buf_.begin() + static_cast<std::ptrdiff_t>(
                                           off_ + sizeof(ChunkHeader)),
                        buf_.begin() + static_cast<std::ptrdiff_t>(
                                           off_ + sizeof(ChunkHeader) +
                                           header_.len));
    off_ += sizeof(ChunkHeader) + header_.len;
    header_valid_ = false;
    if ((out->header.flags & kChunkRoundLast) != 0) {
      complete_ = true;
      if (avail() != 0) {
        throw FrameMismatchError(
            "chunk stream: bytes after the round-last chunk");
      }
    }
    compact();
    return true;
  }

  /// Exact bytes a socket driver should read next: the rest of the current
  /// header, then the rest of the current payload; 0 once the round-last
  /// chunk has been popped. Reading exactly this much guarantees the
  /// driver never pulls post-round (control-lane) bytes into the decoder.
  [[nodiscard]] std::size_t bytes_needed() {
    if (complete_) return 0;
    if (!ensure_header()) return sizeof(ChunkHeader) - avail();
    return sizeof(ChunkHeader) + header_.len - avail();
  }

  /// True once the round-last chunk has been popped via next().
  [[nodiscard]] bool round_complete() const noexcept { return complete_; }

  /// Declare end-of-stream: throws if the stream stopped mid-chunk or
  /// before the round-last chunk (truncation).
  void finish() const {
    if (!complete_) {
      throw FrameMismatchError(
          "chunk stream truncated: stream ended before the round-last "
          "chunk");
    }
  }

  /// Arm for the next round (keeps buffer capacity).
  void reset() noexcept {
    buf_.clear();
    off_ = 0;
    header_valid_ = false;
    complete_ = false;
    cur_channel_ = -1;
    expected_seq_ = 0;
    last_closed_channel_ = -1;
  }

 private:
  [[nodiscard]] std::size_t avail() const noexcept {
    return buf_.size() - off_;
  }

  /// Parse and validate the header at the cursor once 16 bytes are
  /// buffered. Validation that needs no stream context happens here, so a
  /// corrupt header is rejected before its payload is read.
  bool ensure_header() {
    if (header_valid_) return true;
    if (avail() < sizeof(ChunkHeader)) return false;
    std::memcpy(&header_, buf_.data() + off_, sizeof(ChunkHeader));
    if (header_.magic != kChunkMagic) {
      throw FrameMismatchError("chunk stream: bad chunk magic " +
                               std::to_string(header_.magic) +
                               " — stream misaligned or corrupt");
    }
    if ((header_.flags & ~(kChunkChannelEnd | kChunkRoundLast)) != 0) {
      throw FrameMismatchError("chunk stream: unknown chunk flag bits " +
                               std::to_string(header_.flags));
    }
    if ((header_.flags & kChunkRoundLast) != 0 &&
        (header_.flags & kChunkChannelEnd) == 0) {
      throw FrameMismatchError(
          "chunk stream: round-last chunk does not end its channel region");
    }
    if (header_.channel >= kMaxChannels) {
      throw FrameMismatchError("chunk stream: channel id " +
                               std::to_string(header_.channel) +
                               " out of range");
    }
    if (header_.len > kMaxChunkPayload) {
      throw FrameMismatchError("chunk stream: chunk payload length " +
                               std::to_string(header_.len) +
                               " exceeds the cap");
    }
    header_valid_ = true;
    return true;
  }

  /// Enforce the stream order: channel regions strictly ascending, seq
  /// contiguous from 0 inside a region.
  void validate_order(const ChunkHeader& h) {
    if (cur_channel_ < 0) {
      if (static_cast<int>(h.channel) <= last_closed_channel_) {
        throw FrameMismatchError(
            "chunk stream: channel region " + std::to_string(h.channel) +
            " arrived after region " + std::to_string(last_closed_channel_) +
            " — regions must be strictly ascending");
      }
      if (h.seq != 0) {
        throw FrameMismatchError(
            "chunk stream: channel region " + std::to_string(h.channel) +
            " starts at seq " + std::to_string(h.seq) + " instead of 0");
      }
      cur_channel_ = static_cast<int>(h.channel);
      expected_seq_ = 0;
    } else if (static_cast<int>(h.channel) != cur_channel_) {
      throw FrameMismatchError(
          "chunk stream: chunk of channel " + std::to_string(h.channel) +
          " interleaved into open region of channel " +
          std::to_string(cur_channel_));
    }
    if (h.seq != expected_seq_) {
      throw FrameMismatchError(
          "chunk stream: channel " + std::to_string(h.channel) +
          " expected seq " + std::to_string(expected_seq_) + " but got " +
          std::to_string(h.seq) + " — duplicated, dropped or reordered "
          "chunk");
    }
    ++expected_seq_;
    if ((h.flags & kChunkChannelEnd) != 0) {
      last_closed_channel_ = cur_channel_;
      cur_channel_ = -1;
    }
  }

  /// Drop consumed front bytes once they dominate the buffer, so a long
  /// round doesn't hold every chunk it already delivered.
  void compact() {
    if (off_ >= 4096 && off_ * 2 >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
      off_ = 0;
    }
  }

  std::vector<std::byte> buf_;
  std::size_t off_ = 0;
  ChunkHeader header_{};
  bool header_valid_ = false;
  bool complete_ = false;
  int cur_channel_ = -1;
  std::uint32_t expected_seq_ = 0;
  int last_closed_channel_ = -1;
};

}  // namespace pregel::runtime
