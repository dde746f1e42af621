#pragma once
// Chunk types of the retired pipelined-round interface.
//
// Communication rounds are bulk (DESIGN.md section 10). These types
// remain only because Transport's "not supported" pipeline_* stubs name
// them and the benchmark's tracing decorator (perfbench/trace.hpp)
// overrides those stubs.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pregel::runtime {

/// Wire header of one chunk of a pipelined round's stream.
struct ChunkHeader {
  std::uint32_t magic;
  std::uint16_t channel;
  std::uint16_t flags;
  std::uint32_t seq;
  std::uint32_t len;
};
static_assert(sizeof(ChunkHeader) == 16);

/// One reassembled chunk of a pipelined round's stream.
struct DecodedChunk {
  ChunkHeader header{};
  std::vector<std::byte> payload;
};

/// Always false: rounds are bulk. Kept only for the benchmark's resolved
/// configuration record (perfbench/suite.cpp).
inline bool pipeline_from_env() { return false; }

}  // namespace pregel::runtime
