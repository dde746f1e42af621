#include "graph/io.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "runtime/mapped_file.hpp"

namespace pregel::graph {

namespace {

// The snapshot is defined as a little-endian byte layout (DESIGN.md
// section 5). Arrays are written raw, so big-endian hosts are detected at
// runtime and rejected with a clear error instead of writing/reading
// silently byte-swapped data, and a file whose magic arrives byte-swapped
// (written by unchecked raw dumps on such a host) is named as such.
constexpr std::uint32_t kBinaryMagic = 0x53434750;  // "PGCS" little-endian

constexpr std::uint32_t byteswap32(std::uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0x0000FF00u) | ((v << 8) & 0x00FF0000u) |
         (v << 24);
}

void require_little_endian_host(const char* op) {
  if constexpr (std::endian::native != std::endian::little) {
    throw std::runtime_error(
        std::string(op) +
        ": binary snapshots are little-endian by definition and this host "
        "is big-endian — byte-swapped snapshot I/O is not implemented (use "
        "edge-list text files instead)");
  }
}

// Format v3: each array starts at a 64-byte-aligned file offset recorded
// in the (64-byte) header, so a mapping of the file can serve the arrays
// as cache-line-aligned spans. It is the only readable format: v1 (the
// pre-CSR record layout) and v2 (32-byte header, arrays packed right
// behind it) are refused by name.
constexpr std::uint32_t kBinaryVersion = 3;
constexpr std::uint64_t kHeaderBytes = 64;
constexpr std::uint64_t kArrayAlign = 64;
constexpr std::uint32_t kFlagWeighted = 1u << 0;
constexpr std::uint32_t kKnownFlags = kFlagWeighted;

constexpr std::uint64_t align_up(std::uint64_t v) {
  return (v + (kArrayAlign - 1)) & ~(kArrayAlign - 1);
}

template <typename T>
T read_le(const unsigned char* p) {
  T v{};
  std::memcpy(&v, p, sizeof(T));
  return v;  // host is little-endian (enforced above)
}

/// Parsed-and-validated snapshot header: the on-disk fields plus the
/// exact file size the layout dictates.
struct HeaderInfo {
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  std::uint32_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t checksum = 0;
  std::uint64_t offsets_off = 0;
  std::uint64_t dst_off = 0;
  std::uint64_t weights_off = 0;  // 0 when unweighted
  std::uint64_t expected_size = 0;
  [[nodiscard]] bool weighted() const { return (flags & kFlagWeighted) != 0; }
};

/// Parse and validate a snapshot header from the first `len` bytes of the
/// file. Validates the magic (naming byte-swapped files), version,
/// unknown flags, the size-sanity of the counts, and that the recorded
/// array offsets are exactly the canonical 64-byte-aligned layout. `op`
/// prefixes every error message.
HeaderInfo parse_header(const unsigned char* buf, std::uint64_t len,
                        const std::string& op) {
  if (len < 8) throw std::runtime_error(op + ": truncated header");
  const auto magic = read_le<std::uint32_t>(buf);
  if (magic != kBinaryMagic) {
    if (magic == byteswap32(kBinaryMagic)) {
      throw std::runtime_error(
          op +
          ": byte-swapped snapshot (written on a big-endian host) — the "
          "format is little-endian by definition, regenerate with "
          "tools/graph_convert on a little-endian machine");
    }
    throw std::runtime_error(op + ": bad magic (not a snapshot)");
  }
  HeaderInfo h;
  h.version = read_le<std::uint32_t>(buf + 4);
  if (h.version == 1 || h.version == 2) {
    throw std::runtime_error(
        op + ": format v" + std::to_string(h.version) +
        " snapshots are no longer readable (only v3 is) — regenerate with "
        "`graph_convert <edge list> <out.bin>`");
  }
  if (h.version != kBinaryVersion) {
    throw std::runtime_error(op + ": unsupported version " +
                             std::to_string(h.version));
  }
  if (len < kHeaderBytes) throw std::runtime_error(op + ": truncated header");
  h.flags = read_le<std::uint32_t>(buf + 8);
  h.num_vertices = read_le<std::uint32_t>(buf + 12);
  h.num_edges = read_le<std::uint64_t>(buf + 16);
  h.checksum = read_le<std::uint64_t>(buf + 24);
  if ((h.flags & ~kKnownFlags) != 0) {
    throw std::runtime_error(op + ": unknown header flags");
  }

  // Size sanity BEFORE trusting the header's counts: a bit-flipped
  // num_edges must fail cleanly here, not as an overflowed offset or a
  // span past the end of the mapping. The layout is exact, so the
  // expected file size follows the header to the byte.
  const std::uint64_t per_edge = h.weighted() ? 8 : 4;
  const std::uint64_t offsets_bytes =
      (static_cast<std::uint64_t>(h.num_vertices) + 1) * 8;
  if (h.num_edges >
      (std::numeric_limits<std::uint64_t>::max() / 2 - kHeaderBytes -
       offsets_bytes - 2 * kArrayAlign) /
          per_edge) {
    throw std::runtime_error(op + ": corrupt header (edge count)");
  }

  h.offsets_off = read_le<std::uint64_t>(buf + 32);
  h.dst_off = read_le<std::uint64_t>(buf + 40);
  h.weights_off = read_le<std::uint64_t>(buf + 48);
  const auto reserved = read_le<std::uint64_t>(buf + 56);
  // The array offsets are not free-form: writers MUST place the arrays at
  // the canonical aligned offsets, and readers verify — a corrupted
  // offset field fails here instead of serving garbage spans.
  const std::uint64_t want_offsets = kHeaderBytes;
  const std::uint64_t want_dst = align_up(want_offsets + offsets_bytes);
  const std::uint64_t want_weights =
      h.weighted() ? align_up(want_dst + h.num_edges * 4) : 0;
  if (h.offsets_off != want_offsets || h.dst_off != want_dst ||
      h.weights_off != want_weights || reserved != 0) {
    throw std::runtime_error(op +
                             ": corrupt header (array offsets are not the "
                             "canonical 64-byte-aligned layout)");
  }
  h.expected_size = h.weighted() ? h.weights_off + h.num_edges * 4
                                 : h.dst_off + h.num_edges * 4;
  return h;
}

// ---- descriptor helpers (load_any sniff, snapshot_info) ------------------

/// Close-on-scope-exit descriptor; release() hands it off (to a mapping).
class FdGuard {
 public:
  explicit FdGuard(int fd) : fd_(fd) {}
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  ~FdGuard() {
    if (fd_ >= 0) ::close(fd_);
  }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_;
};

/// pread the full range, looping over short reads; returns the byte count
/// actually available (short at EOF), throws on a read error.
std::uint64_t pread_full(int fd, void* dst, std::uint64_t len,
                         std::uint64_t off, const std::string& op) {
  auto* out = static_cast<unsigned char*>(dst);
  std::uint64_t done = 0;
  while (done < len) {
    const ::ssize_t got =
        ::pread(fd, out + done, static_cast<std::size_t>(len - done),
                static_cast<::off_t>(off + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(op + ": read failed: " + std::strerror(errno));
    }
    if (got == 0) break;  // EOF
    done += static_cast<std::uint64_t>(got);
  }
  return done;
}

// ---- lazy checksum verification -------------------------------------------
//
// Verifying a snapshot's checksum reads every byte — exactly the O(bytes)
// cost the zero-copy path exists to avoid. Policy: verify (checksum + the
// deep CSR invariant scan) on the FIRST load of a file in this process,
// then cache the verdict keyed by the file's identity (device, inode,
// size, mtime); later loads of the unchanged file skip straight to the
// spans.

struct VerifiedEntry {
  std::uint64_t size = 0;
  std::int64_t mtime_ns = 0;
  std::uint64_t checksum = 0;
};

std::mutex g_verified_mu;
std::map<std::pair<std::uint64_t, std::uint64_t>, VerifiedEntry>&
verified_cache() {
  static std::map<std::pair<std::uint64_t, std::uint64_t>, VerifiedEntry>
      cache;
  return cache;
}

bool already_verified(const runtime::MappedFile& map, std::uint64_t checksum) {
  const std::lock_guard<std::mutex> lock(g_verified_mu);
  const auto it = verified_cache().find({map.device(), map.inode()});
  return it != verified_cache().end() && it->second.size == map.size() &&
         it->second.mtime_ns == map.mtime_ns() &&
         it->second.checksum == checksum;
}

void record_verified(const runtime::MappedFile& map, std::uint64_t checksum) {
  const std::lock_guard<std::mutex> lock(g_verified_mu);
  verified_cache()[{map.device(), map.inode()}] =
      VerifiedEntry{map.size(), map.mtime_ns(), checksum};
}

/// Zero-copy load from an established mapping: parse + validate the
/// header out of the mapped bytes and return a CsrGraph of spans into
/// them, with the mapping as the keep-alive handle.
CsrGraph load_mapped(std::shared_ptr<const runtime::MappedFile> map) {
  const std::string op = "load_binary_mmap";
  const auto* base = reinterpret_cast<const unsigned char*>(map->data());
  const HeaderInfo h = parse_header(base, map->size(), op);
  if (map->size() != h.expected_size) {
    throw std::runtime_error(
        op + ": file size does not match header (corrupt or truncated)");
  }

  // The mapping is page-aligned and the array offsets are 64-byte
  // aligned, so these casts land on properly-aligned addresses.
  const std::span<const std::uint64_t> offsets(
      reinterpret_cast<const std::uint64_t*>(base + h.offsets_off),
      static_cast<std::size_t>(h.num_vertices) + 1);
  const std::span<const VertexId> dst(
      reinterpret_cast<const VertexId*>(base + h.dst_off),
      static_cast<std::size_t>(h.num_edges));
  const std::span<const Weight> weights =
      h.weighted()
          ? std::span<const Weight>(
                reinterpret_cast<const Weight*>(base + h.weights_off),
                static_cast<std::size_t>(h.num_edges))
          : std::span<const Weight>();

  const bool verify = !already_verified(*map, h.checksum);
  CsrGraph g;
  try {
    g = CsrGraph::from_view(offsets, dst, weights, map, /*deep_validate=*/verify);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(op + ": corrupt arrays: " + e.what());
  }
  if (verify) {
    if (g.checksum() != h.checksum) {
      throw std::runtime_error(op + ": checksum mismatch (corrupt file)");
    }
    record_verified(*map, h.checksum);
  }
  return g;
}

template <typename T>
void put(std::ofstream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
void put_array(std::ofstream& out, std::span<const T> a) {
  out.write(reinterpret_cast<const char*>(a.data()),
            static_cast<std::streamsize>(a.size() * sizeof(T)));
}

void put_padding(std::ofstream& out, std::uint64_t bytes) {
  static constexpr char kZeros[kArrayAlign] = {};
  out.write(kZeros, static_cast<std::streamsize>(bytes));
}

}  // namespace

void save_edge_list(const Graph& g, const std::string& path, bool weighted) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_edge_list: cannot open " + path);
  out << g.num_vertices() << (weighted ? " weighted" : "") << "\n";
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const Edge& e : g.out(u)) {
      out << u << ' ' << e.dst;
      if (weighted) out << ' ' << e.weight;
      out << '\n';
    }
  }
  if (!out) throw std::runtime_error("save_edge_list: write failed");
}

Graph load_edge_list(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_edge_list: cannot open " + path);
  std::string line;
  std::uint64_t line_no = 0;
  const auto fail = [&](const std::string& what) {
    return std::runtime_error("load_edge_list: " + path + ":" +
                              std::to_string(line_no) + ": " + what);
  };
  VertexId n = 0;
  bool weighted = false;
  // Header: skip comments, then "num_vertices [weighted]". Anything else
  // is refused: a misspelled flag would otherwise drop every weight.
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream hdr(line);
    if (!(hdr >> n)) throw fail("non-numeric header '" + line + "'");
    std::string flag;
    if (hdr >> flag) {
      if (flag != "weighted") {
        throw fail("unknown header flag '" + flag + "'");
      }
      weighted = true;
      if (hdr >> flag) throw fail("unknown header flag '" + flag + "'");
    }
    break;
  }
  Graph g(n);
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    VertexId u = 0, v = 0;
    Weight w = 1;
    row >> u >> v;
    if (weighted) row >> w;
    if (row.fail()) throw fail("bad line '" + line + "'");
    std::string extra;
    if (row >> extra) {
      throw fail("extra tokens in '" + line + "'" +
                 (weighted ? "" : " (the header declares no weights)"));
    }
    g.add_edge(u, v, w);
  }
  return g;
}

Graph load_edge_list_auto(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_edge_list_auto: cannot open " + path);
  }
  std::string line;
  // Find the first data line and classify the file.
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    break;
  }
  std::istringstream probe(line);
  VertexId a = 0, b = 0;
  probe >> a;
  const bool headerless = static_cast<bool>(probe >> b);
  if (!headerless) return load_edge_list(path);

  // Headerless SNAP-style list: collect edges, infer the vertex count.
  struct Row {
    VertexId u, v;
    Weight w;
  };
  std::vector<Row> rows;
  VertexId max_id = 0;
  bool any_weight = false;
  in.clear();
  in.seekg(0);
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    VertexId u = 0, v = 0;
    Weight w = 1;
    row >> u >> v;
    if (row.fail()) {
      throw std::runtime_error("load_edge_list_auto: bad line: " + line);
    }
    if (row >> w) any_weight = true;
    rows.push_back({u, v, w});
    max_id = std::max({max_id, u, v});
  }
  Graph g(rows.empty() ? 0 : max_id + 1);
  for (const Row& r : rows) g.add_edge(r.u, r.v, any_weight ? r.w : Weight{1});
  return g;
}

void save_binary(const CsrGraph& g, const std::string& path) {
  require_little_endian_host("save_binary");
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_binary: cannot open " + path);

  const std::uint64_t offsets_bytes = (g.num_vertices() + 1ull) * 8;
  const std::uint64_t offsets_off = kHeaderBytes;
  const std::uint64_t dst_off = align_up(offsets_off + offsets_bytes);
  const std::uint64_t weights_off =
      g.is_weighted() ? align_up(dst_off + g.num_edges() * 4) : 0;

  put(out, kBinaryMagic);
  put(out, kBinaryVersion);
  put(out, std::uint32_t{g.is_weighted() ? kFlagWeighted : 0});
  put(out, g.num_vertices());
  put(out, g.num_edges());
  put(out, g.checksum());
  put(out, offsets_off);
  put(out, dst_off);
  put(out, weights_off);
  put(out, std::uint64_t{0});  // reserved

  put_array(out, g.offsets());
  put_padding(out, dst_off - (offsets_off + offsets_bytes));
  put_array(out, g.dst_array());
  if (g.is_weighted()) {
    put_padding(out, weights_off - (dst_off + g.num_edges() * 4));
    put_array(out, g.weight_array());
  }
  if (!out) throw std::runtime_error("save_binary: write failed");
}

void save_binary(const Graph& g, const std::string& path) {
  save_binary(g.finalize(), path);
}

CsrGraph load_binary_mmap(const std::string& path) {
  require_little_endian_host("load_binary_mmap");
  return load_mapped(std::make_shared<const runtime::MappedFile>(path));
}

CsrGraph load_any(const std::string& path) {
  // One open(2) per load: the magic sniff runs on this descriptor, which
  // the mapping then adopts — never reopened. Only the text fallback
  // reopens, through its line parser.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("load_any: cannot open " + path);
  FdGuard guard(fd);

  unsigned char probe[4] = {};
  if (pread_full(fd, probe, sizeof(probe), 0, "load_any") == sizeof(probe)) {
    const auto magic = read_le<std::uint32_t>(probe);
    // Route the byte-swapped magic to the snapshot loader too: its
    // "written on a big-endian host" error beats the text parser's "bad
    // line".
    if (magic == kBinaryMagic || magic == byteswap32(kBinaryMagic)) {
      require_little_endian_host("load_any");
      return load_mapped(std::make_shared<const runtime::MappedFile>(
          guard.release(), path));
    }
  }
  return load_edge_list_auto(path).finalize();
}

std::optional<SnapshotInfo> snapshot_info(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("snapshot_info: cannot open " + path);
  const FdGuard guard(fd);
  unsigned char hdr[kHeaderBytes] = {};
  const std::uint64_t got =
      pread_full(fd, hdr, sizeof(hdr), 0, "snapshot_info");
  if (got < 8 || read_le<std::uint32_t>(hdr) != kBinaryMagic) {
    return std::nullopt;  // not a snapshot (text files land here)
  }
  const HeaderInfo h = parse_header(hdr, got, "snapshot_info");
  SnapshotInfo info;
  info.version = h.version;
  info.weighted = h.weighted();
  info.num_vertices = h.num_vertices;
  info.num_edges = h.num_edges;
  info.checksum = h.checksum;
  info.offsets_off = h.offsets_off;
  info.dst_off = h.dst_off;
  info.weights_off = h.weights_off;
  return info;
}

}  // namespace pregel::graph
