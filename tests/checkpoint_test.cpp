// Checkpoint format and fault-spec tests (docs/fault_tolerance.md):
// round-trip, atomic-commit marker semantics, rejection of corrupted,
// truncated or older-version files, fall-back past a damaged newest
// epoch, retention pruning, and the PGCH_FAULT parser (malformed specs
// must throw — a spec that silently parses to "no fault" would make
// failure-injection tests vacuously pass).

#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>

#ifndef _WIN32
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "core/launch_config.hpp"
#include "runtime/buffer.hpp"
#include "runtime/checkpoint.hpp"

using namespace pregel;
using runtime::Buffer;

namespace {

/// Fresh per-test scratch directory under the build tree.
std::string scratch_dir(const char* name) {
  const std::string dir =
      "ckpt_test_" + std::string(name) + "_" + std::to_string(::getpid());
  std::remove((dir + "/LATEST").c_str());
  return dir;
}

Buffer payload_of(const std::string& text) {
  Buffer b;
  b.write_string(text);
  return b;
}

TEST(Checkpoint, WriteLoadRoundTrip) {
  const std::string dir = scratch_dir("roundtrip");
  const Buffer out = payload_of("superstep state");
  runtime::write_checkpoint(dir, /*rank=*/0, /*world=*/2, /*epoch=*/4, out);

  Buffer in = runtime::load_checkpoint(dir, 0, 2, 4);
  EXPECT_EQ(in.read_string(), "superstep state");
  EXPECT_TRUE(runtime::checkpoint_valid(dir, 0, 2, 4));
}

TEST(Checkpoint, LoadRejectsWrongShape) {
  const std::string dir = scratch_dir("shape");
  runtime::write_checkpoint(dir, 1, 2, 6, payload_of("rank 1 epoch 6"));

  // The file on disk is named by (rank, epoch); asking for a different
  // world must fail even though the path resolves.
  EXPECT_THROW(runtime::load_checkpoint(dir, 1, 4, 6),
               runtime::CheckpointError);
  EXPECT_FALSE(runtime::checkpoint_valid(dir, 1, 4, 6));
  // Missing file: nothing was written for this rank.
  EXPECT_THROW(runtime::load_checkpoint(dir, 0, 2, 6),
               runtime::CheckpointError);
}

TEST(Checkpoint, CorruptionIsDetectedByChecksum) {
  const std::string dir = scratch_dir("corrupt");
  runtime::write_checkpoint(dir, 0, 2, 2, payload_of("soon to be damaged"));
  ASSERT_TRUE(runtime::checkpoint_valid(dir, 0, 2, 2));

  ASSERT_TRUE(runtime::corrupt_checkpoint(dir, 0, 2));
  EXPECT_FALSE(runtime::checkpoint_valid(dir, 0, 2, 2));
  EXPECT_THROW(runtime::load_checkpoint(dir, 0, 2, 2),
               runtime::CheckpointError);
}

TEST(Checkpoint, TruncatedFileIsRejected) {
  const std::string dir = scratch_dir("truncate");
  runtime::write_checkpoint(dir, 0, 2, 2, payload_of("about to shrink"));
  const std::string path = runtime::checkpoint_path(dir, 0, 2);

  // Chop the tail off: header parses, payload comes up short.
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long full = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(::truncate(path.c_str(), full - 4), 0);

  EXPECT_THROW(runtime::load_checkpoint(dir, 0, 2, 2),
               runtime::CheckpointError);
}

TEST(Checkpoint, LatestValidEpochWalksPastDamage) {
  const std::string dir = scratch_dir("fallback");
  runtime::write_checkpoint(dir, 0, 2, 2, payload_of("old"));
  runtime::write_checkpoint(dir, 0, 2, 4, payload_of("new"));
  EXPECT_EQ(runtime::latest_valid_epoch(dir, 0, 2, INT_MAX), 4);

  // Damage the newest: recovery must fall back to the previous epoch.
  ASSERT_TRUE(runtime::corrupt_checkpoint(dir, 0, 4));
  EXPECT_EQ(runtime::latest_valid_epoch(dir, 0, 2, INT_MAX), 2);

  // The at_most bound caps the walk (a resume hint below the newest).
  EXPECT_EQ(runtime::latest_valid_epoch(dir, 0, 2, 3), 2);
  EXPECT_EQ(runtime::latest_valid_epoch(dir, 0, 2, 1), -1);
}

TEST(Checkpoint, OlderFormatVersionIsRefusedByName) {
  const std::string dir = scratch_dir("version");
  runtime::write_checkpoint(dir, 0, 2, 2, payload_of("current"));
  runtime::write_checkpoint(dir, 0, 2, 4, payload_of("from an old build"));

  // Patch the epoch-4 header's version field (the u32 after the magic) to
  // 1. The payload and its checksum are untouched, so only the version
  // check can reject the file.
  const std::string path = runtime::checkpoint_path(dir, 0, 4);
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::uint32_t old_version = 1;
  ASSERT_EQ(std::fseek(f, sizeof(std::uint32_t), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&old_version, sizeof old_version, 1, f), 1u);
  std::fclose(f);

  try {
    (void)runtime::load_checkpoint(dir, 0, 2, 4);
    ADD_FAILURE() << "a version-1 checkpoint was accepted";
  } catch (const runtime::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(runtime::latest_valid_epoch(dir, 0, 2, INT_MAX), 2);
}

TEST(Checkpoint, MarkerCommitsAnEpochPerWorldSize) {
  const std::string dir = scratch_dir("marker");
  EXPECT_EQ(runtime::read_latest_marker(dir, 2), -1);
  runtime::write_checkpoint(dir, 0, 2, 6, payload_of("state"));
  runtime::write_latest_marker(dir, 6, 2);
  EXPECT_EQ(runtime::read_latest_marker(dir, 2), 6);
  // A marker from a different world shape must not be trusted.
  EXPECT_EQ(runtime::read_latest_marker(dir, 3), -1);
}

TEST(Checkpoint, PruneKeepsTheRetentionWindow) {
  const std::string dir = scratch_dir("prune");
  runtime::write_checkpoint(dir, 0, 2, 2, payload_of("a"));
  runtime::write_checkpoint(dir, 0, 2, 4, payload_of("b"));
  runtime::write_checkpoint(dir, 0, 2, 6, payload_of("c"));

  runtime::prune_checkpoints(dir, 0, /*keep_from_epoch=*/4);
  EXPECT_FALSE(runtime::checkpoint_valid(dir, 0, 2, 2));
  EXPECT_TRUE(runtime::checkpoint_valid(dir, 0, 2, 4));
  EXPECT_TRUE(runtime::checkpoint_valid(dir, 0, 2, 6));
}

TEST(FaultSpec, ParsesTheThreeKinds) {
  const auto exit_spec =
      core::FaultSpec::parse("rank=1,superstep=5,kind=exit");
  EXPECT_TRUE(exit_spec.enabled());
  EXPECT_EQ(exit_spec.rank, 1);
  EXPECT_EQ(exit_spec.superstep, 5);
  EXPECT_EQ(exit_spec.kind, core::FaultSpec::Kind::kExit);
  EXPECT_TRUE(exit_spec.matches(1, 5));
  EXPECT_FALSE(exit_spec.matches(0, 5));
  EXPECT_FALSE(exit_spec.matches(1, 4));

  EXPECT_EQ(core::FaultSpec::parse("rank=0,superstep=2,kind=hang").kind,
            core::FaultSpec::Kind::kHang);
  EXPECT_EQ(core::FaultSpec::parse("kind=corrupt,rank=2,superstep=9").kind,
            core::FaultSpec::Kind::kCorrupt);
}

TEST(FaultSpec, MalformedSpecsThrowInsteadOfDisarming) {
  EXPECT_THROW(core::FaultSpec::parse("kind=exit"), std::invalid_argument);
  EXPECT_THROW(core::FaultSpec::parse("rank=1,superstep=5"),
               std::invalid_argument);
  EXPECT_THROW(core::FaultSpec::parse("rank=1,superstep=5,kind=explode"),
               std::invalid_argument);
  EXPECT_THROW(core::FaultSpec::parse("rank=-1,superstep=5,kind=exit"),
               std::invalid_argument);
  EXPECT_THROW(core::FaultSpec::parse("rank=1,superstep=0,kind=exit"),
               std::invalid_argument);
  EXPECT_THROW(core::FaultSpec::parse("bogus"), std::invalid_argument);
  EXPECT_THROW(core::FaultSpec::parse("rank=1,superstep=5,kind=exit,x=1"),
               std::invalid_argument);
}

}  // namespace
