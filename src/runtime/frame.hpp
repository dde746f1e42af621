#pragma once
// Shared primitives of the framed wire protocol (DESIGN.md section 1),
// split out of exchange.hpp so lower layers can name them without a
// dependency cycle.

#include <cstdint>

#include "runtime/buffer.hpp"

namespace pregel::runtime {

/// Hard cap on channels per worker. Shared by the exchange's per-channel
/// byte accounting and the engine's 64-bit channel activity mask
/// (core/worker.hpp) — raising it past 64 requires widening that mask.
inline constexpr int kMaxChannels = 64;

/// Per-payload frame header of the framed wire protocol.
struct ChannelFrame {
  std::uint32_t channel_id;  ///< registration index of the writing channel
  std::uint32_t byte_len;    ///< payload bytes that follow this header
};
static_assert(sizeof(ChannelFrame) == 8);

/// A channel violated the framed wire protocol: wrong channel's frame at
/// the read cursor, a deserialize() that consumed fewer/more bytes than
/// the peer's serialize() produced.
class FrameMismatchError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

}  // namespace pregel::runtime
