#include "runtime/checkpoint.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "runtime/env.hpp"

#ifdef _WIN32
#include <direct.h>
#else
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace pregel::runtime {

namespace {

// "PGCP" little-endian, next to the snapshot's "PGCH": same family,
// never confusable with a graph snapshot.
constexpr std::uint32_t kCheckpointMagic = 0x50434750u;
// Version 3: the worker payload lost its push/pull direction byte and the
// embedded RunStats record its per-superstep direction vector, so a
// version-2 payload would misparse (version 2 had already dropped
// RunStats' five pipelined-round fields from version 1). Version 4: the
// worker payload ends with a length-prefixed program-state section
// (Worker::save_program_state), which a version-3 payload lacks.
constexpr std::uint32_t kCheckpointVersion = 4;

// On-disk header, all fields little-endian (the repo targets
// little-endian hosts; the byteswapped-magic check below catches a
// foreign-endian file explicitly like io.cpp does).
struct FileHeader {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint32_t rank;
  std::uint32_t world;
  std::int64_t epoch;
  std::uint64_t payload_len;
  std::uint64_t checksum;
};
static_assert(sizeof(FileHeader) == 40);

constexpr std::uint32_t byteswap32(std::uint32_t v) {
  return ((v & 0x000000FFu) << 24) | ((v & 0x0000FF00u) << 8) |
         ((v & 0x00FF0000u) >> 8) | ((v & 0xFF000000u) >> 24);
}

[[noreturn]] void fail(const std::string& what) { throw CheckpointError(what); }

/// mkdir -p: create every missing component. EEXIST is success.
void make_dirs(const std::string& dir) {
  if (dir.empty()) return;
  std::string partial;
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') {
      partial.push_back(dir[i]);
      continue;
    }
    if (!partial.empty()) {
#ifdef _WIN32
      if (_mkdir(partial.c_str()) != 0 && errno != EEXIST) {
        fail("checkpoint: cannot create directory '" + partial +
             "': " + std::strerror(errno));
      }
#else
      if (::mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST) {
        fail("checkpoint: cannot create directory '" + partial +
             "': " + std::strerror(errno));
      }
#endif
    }
    if (i < dir.size()) partial.push_back('/');
  }
}

/// Durably replace `final_path` with `bytes`: write a sibling temp
/// file, fsync it, rename over the target, fsync the directory. The
/// target is either the old complete file or the new complete file —
/// never a torn mix.
void atomic_write(const std::string& dir, const std::string& final_path,
                  const void* bytes, std::size_t n) {
  const std::string tmp_path = final_path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    fail("checkpoint: cannot open '" + tmp_path +
         "' for writing: " + std::strerror(errno));
  }
  const bool wrote = n == 0 || std::fwrite(bytes, 1, n, f) == n;
  bool flushed = std::fflush(f) == 0;
#ifndef _WIN32
  if (wrote && flushed) flushed = ::fsync(::fileno(f)) == 0;
#endif
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !flushed || !closed) {
    std::remove(tmp_path.c_str());
    fail("checkpoint: short write to '" + tmp_path + "'");
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    fail("checkpoint: cannot rename '" + tmp_path + "' into place: " +
         std::strerror(errno));
  }
#ifndef _WIN32
  // fsync the directory so the rename itself survives a crash.
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
#endif
}

std::string latest_marker_path(const std::string& dir) {
  return dir.empty() ? std::string("LATEST") : dir + "/LATEST";
}

/// Parse "ckpt_r<rank>_e<epoch>.bin"; returns epoch or -1.
int parse_epoch_from_name(const char* name, int rank) {
  int file_rank = -1, epoch = -1;
  char tail = '\0';
  if (std::sscanf(name, "ckpt_r%d_e%d.bi%c", &file_rank, &epoch, &tail) != 3 ||
      tail != 'n' || file_rank != rank || epoch < 0) {
    return -1;
  }
  return epoch;
}

}  // namespace

CheckpointConfig CheckpointConfig::from_env() {
  CheckpointConfig cfg;
  cfg.every = env_int("PGCH_CHECKPOINT_EVERY", 0, 0);
  if (const char* dir = std::getenv("PGCH_CHECKPOINT_DIR")) {
    if (dir[0] != '\0') cfg.dir = dir;
  }
  if (const char* resume = std::getenv("PGCH_RESUME")) {
    if (resume[0] != '\0') {
      cfg.resume = true;
      // Exactly "auto" or an epoch: a negative number would read as the
      // "scan everything" hint, so it is refused rather than taken as auto.
      cfg.resume_epoch = std::strcmp(resume, "auto") == 0
                             ? -1
                             : static_cast<int>(parse_int64(
                                   "PGCH_RESUME", resume, 0, INT_MAX));
    }
  }
  return cfg;
}

std::string checkpoint_path(const std::string& dir, int rank, int epoch) {
  char name[64];
  std::snprintf(name, sizeof name, "ckpt_r%d_e%d.bin", rank, epoch);
  return dir.empty() ? std::string(name) : dir + "/" + name;
}

void write_checkpoint(const std::string& dir, int rank, int world, int epoch,
                      const Buffer& payload) {
  make_dirs(dir);
  FileHeader header{};
  header.magic = kCheckpointMagic;
  header.version = kCheckpointVersion;
  header.rank = static_cast<std::uint32_t>(rank);
  header.world = static_cast<std::uint32_t>(world);
  header.epoch = epoch;
  header.payload_len = payload.size();
  header.checksum = checkpoint_fnv1a64(payload.data(), payload.size());

  std::vector<unsigned char> bytes(sizeof header + payload.size());
  std::memcpy(bytes.data(), &header, sizeof header);
  if (payload.size() > 0) {
    std::memcpy(bytes.data() + sizeof header, payload.data(), payload.size());
  }
  atomic_write(dir, checkpoint_path(dir, rank, epoch), bytes.data(),
               bytes.size());
}

Buffer load_checkpoint(const std::string& dir, int rank, int world, int epoch) {
  const std::string path = checkpoint_path(dir, rank, epoch);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    fail("checkpoint: cannot open '" + path + "': " + std::strerror(errno));
  }
  FileHeader header{};
  const bool got_header = std::fread(&header, sizeof header, 1, f) == 1;
  if (!got_header) {
    std::fclose(f);
    fail("checkpoint: '" + path + "' is truncated (no header)");
  }
  if (header.magic != kCheckpointMagic) {
    const bool swapped = byteswap32(header.magic) == kCheckpointMagic;
    std::fclose(f);
    fail(swapped ? "checkpoint: '" + path +
                       "' was written on an opposite-endianness machine"
                 : "checkpoint: '" + path + "' is not a checkpoint file");
  }
  if (header.version != kCheckpointVersion) {
    std::fclose(f);
    fail("checkpoint: '" + path + "' has unsupported version " +
         std::to_string(header.version));
  }
  if (header.rank != static_cast<std::uint32_t>(rank) ||
      header.world != static_cast<std::uint32_t>(world) ||
      header.epoch != epoch) {
    std::fclose(f);
    fail("checkpoint: '" + path + "' names rank " +
         std::to_string(header.rank) + "/" + std::to_string(header.world) +
         " epoch " + std::to_string(header.epoch) + ", expected rank " +
         std::to_string(rank) + "/" + std::to_string(world) + " epoch " +
         std::to_string(epoch));
  }
  Buffer payload;
  if (header.payload_len > 0) {
    std::byte* dst = payload.extend(header.payload_len);
    if (std::fread(dst, 1, header.payload_len, f) != header.payload_len) {
      std::fclose(f);
      fail("checkpoint: '" + path + "' is truncated (payload short)");
    }
  }
  // Trailing garbage would mean the file is not what the header claims.
  unsigned char extra = 0;
  const bool at_eof = std::fread(&extra, 1, 1, f) == 0;
  std::fclose(f);
  if (!at_eof) {
    fail("checkpoint: '" + path + "' has trailing bytes past the payload");
  }
  if (checkpoint_fnv1a64(payload.data(), payload.size()) != header.checksum) {
    fail("checkpoint: '" + path + "' checksum mismatch (corrupt file)");
  }
  payload.rewind();
  return payload;
}

bool checkpoint_valid(const std::string& dir, int rank, int world, int epoch) {
  try {
    load_checkpoint(dir, rank, world, epoch);
    return true;
  } catch (const CheckpointError&) {
    return false;
  }
}

void write_latest_marker(const std::string& dir, int epoch, int world) {
  make_dirs(dir);
  char line[64];
  const int n =
      std::snprintf(line, sizeof line, "%d %d\n", epoch, world);
  atomic_write(dir, latest_marker_path(dir), line,
               static_cast<std::size_t>(n));
}

int read_latest_marker(const std::string& dir, int world) {
  std::FILE* f = std::fopen(latest_marker_path(dir).c_str(), "rb");
  if (f == nullptr) return -1;
  int epoch = -1, marker_world = -1;
  const int got = std::fscanf(f, "%d %d", &epoch, &marker_world);
  std::fclose(f);
  if (got != 2 || epoch < 0) return -1;
  if (world > 0 && marker_world != world) return -1;
  return epoch;
}

int latest_valid_epoch(const std::string& dir, int rank, int world,
                       int at_most) {
#ifdef _WIN32
  (void)dir;
  (void)rank;
  (void)world;
  (void)at_most;
  return -1;
#else
  DIR* d = ::opendir(dir.empty() ? "." : dir.c_str());
  if (d == nullptr) return -1;
  std::vector<int> epochs;
  while (const dirent* entry = ::readdir(d)) {
    const int epoch = parse_epoch_from_name(entry->d_name, rank);
    if (epoch >= 0 && epoch <= at_most) epochs.push_back(epoch);
  }
  ::closedir(d);
  std::sort(epochs.begin(), epochs.end(), std::greater<int>());
  for (const int epoch : epochs) {
    if (checkpoint_valid(dir, rank, world, epoch)) return epoch;
  }
  return -1;
#endif
}

bool corrupt_checkpoint(const std::string& dir, int rank, int epoch) {
  const std::string path = checkpoint_path(dir, rank, epoch);
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  if (size <= static_cast<long>(sizeof(FileHeader))) {
    // Header-only file: damage it by chopping the header short.
    std::fclose(f);
    return std::remove(path.c_str()) == 0;
  }
  const long offset = sizeof(FileHeader);  // first payload byte
  std::fseek(f, offset, SEEK_SET);
  int byte = std::fgetc(f);
  if (byte == EOF) {
    std::fclose(f);
    return false;
  }
  std::fseek(f, offset, SEEK_SET);
  std::fputc(byte ^ 0xFF, f);
  std::fclose(f);
  return true;
}

void prune_checkpoints(const std::string& dir, int rank, int keep_from_epoch) {
#ifndef _WIN32
  DIR* d = ::opendir(dir.empty() ? "." : dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> doomed;
  while (const dirent* entry = ::readdir(d)) {
    const int epoch = parse_epoch_from_name(entry->d_name, rank);
    if (epoch >= 0 && epoch < keep_from_epoch) doomed.push_back(entry->d_name);
  }
  ::closedir(d);
  for (const std::string& name : doomed) {
    std::remove((dir.empty() ? name : dir + "/" + name).c_str());
  }
#else
  (void)dir;
  (void)rank;
  (void)keep_from_epoch;
#endif
}

}  // namespace pregel::runtime
