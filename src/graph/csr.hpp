#pragma once
// CsrGraph: the immutable, cache-friendly graph every engine run reads.
//
// Storage is compressed sparse row (CSR) with the weights split out of the
// edge records (structure-of-arrays):
//
//   offsets_ : num_vertices()+1 u64 — vertex u's adjacency occupies
//              [offsets_[u], offsets_[u+1]) in the packed arrays
//   dst_     : num_edges() u32      — destination ids, packed back-to-back
//   weights_ : num_edges() u32      — parallel to dst_; EMPTY when every
//              edge weight is 1 (unweighted graphs pay no weight memory)
//
// The graph is a VIEW over storage it may or may not own: the three
// members are `std::span`s, and a shared keep-alive handle pins whatever
// backs them — heap vectors for built/loaded graphs, or a
// `runtime::MappedFile` for the zero-copy snapshot path
// (`graph::load_binary_mmap`), where the spans point straight into the
// page cache and copies of the graph share one physical mapping. Copies
// are therefore O(1): they alias the same immutable arrays.
//
// The mutable builder API stays on graph::Graph; `Graph::finalize()` packs
// it into a CsrGraph. Engines, partitioners and I/O all consume the CSR
// form: neighbor iteration is a linear scan of one contiguous array
// instead of a pointer chase through per-vertex heap blocks. The on-disk
// snapshot (graph/io.hpp) is these three
// arrays written raw behind a checksummed header — see DESIGN.md section 5.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"

namespace pregel::graph {

/// Random-access iterator over one vertex's CSR adjacency, materializing
/// `Edge` values from the SoA dst/weight arrays on dereference. `weight`
/// may be null (unweighted storage): every edge then reads weight 1.
class EdgeIterator {
 public:
  using iterator_concept = std::random_access_iterator_tag;
  using iterator_category = std::random_access_iterator_tag;
  using value_type = Edge;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = Edge;

  EdgeIterator() = default;
  EdgeIterator(const VertexId* dst, const Weight* weight, std::size_t i)
      : dst_(dst), weight_(weight), i_(i) {}

  [[nodiscard]] Edge operator*() const {
    return Edge{dst_[i_], weight_ != nullptr ? weight_[i_] : Weight{1}};
  }
  [[nodiscard]] Edge operator[](difference_type k) const {
    return *(*this + k);
  }

  EdgeIterator& operator++() { ++i_; return *this; }
  EdgeIterator operator++(int) { auto t = *this; ++i_; return t; }
  EdgeIterator& operator--() { --i_; return *this; }
  EdgeIterator operator--(int) { auto t = *this; --i_; return t; }
  EdgeIterator& operator+=(difference_type k) {
    i_ = static_cast<std::size_t>(static_cast<difference_type>(i_) + k);
    return *this;
  }
  EdgeIterator& operator-=(difference_type k) { return *this += -k; }
  friend EdgeIterator operator+(EdgeIterator it, difference_type k) {
    return it += k;
  }
  friend EdgeIterator operator+(difference_type k, EdgeIterator it) {
    return it += k;
  }
  friend EdgeIterator operator-(EdgeIterator it, difference_type k) {
    return it -= k;
  }
  friend difference_type operator-(const EdgeIterator& a,
                                   const EdgeIterator& b) {
    return static_cast<difference_type>(a.i_) -
           static_cast<difference_type>(b.i_);
  }
  friend bool operator==(const EdgeIterator& a, const EdgeIterator& b) {
    return a.i_ == b.i_;
  }
  friend auto operator<=>(const EdgeIterator& a, const EdgeIterator& b) {
    return a.i_ <=> b.i_;
  }

 private:
  const VertexId* dst_ = nullptr;
  const Weight* weight_ = nullptr;
  std::size_t i_ = 0;
};

/// Contiguous view of one vertex's adjacency in a CsrGraph: a span over
/// the packed destination array plus the (possibly absent) weight array.
/// Iteration yields `Edge` values, so algorithm loops written against the
/// builder Graph's `span<const Edge>` keep their exact shape.
class EdgeSpan {
 public:
  EdgeSpan() = default;
  EdgeSpan(const VertexId* dst, const Weight* weight, std::size_t size)
      : dst_(dst), weight_(weight), size_(size) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] Edge operator[](std::size_t i) const {
    return Edge{dst_[i], weight_ != nullptr ? weight_[i] : Weight{1}};
  }
  [[nodiscard]] Edge front() const { return (*this)[0]; }
  [[nodiscard]] Edge back() const { return (*this)[size_ - 1]; }

  [[nodiscard]] EdgeIterator begin() const {
    return EdgeIterator(dst_, weight_, 0);
  }
  [[nodiscard]] EdgeIterator end() const {
    return EdgeIterator(dst_, weight_, size_);
  }

  /// The raw destination ids — contiguous, weight-free.
  [[nodiscard]] std::span<const VertexId> targets() const noexcept {
    return {dst_, size_};
  }

 private:
  const VertexId* dst_ = nullptr;
  const Weight* weight_ = nullptr;
  std::size_t size_ = 0;
};

/// Immutable CSR graph. Construct via Graph::finalize(), the from_arrays
/// factory (I/O), or a from_view over mapped storage.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Takes ownership of pre-built CSR arrays, validating the invariants
  /// (monotone offsets ending at dst.size(), in-range destinations,
  /// weights either empty or parallel to dst). Throws std::invalid_argument.
  static CsrGraph from_arrays(std::vector<std::uint64_t> offsets,
                              std::vector<VertexId> dst,
                              std::vector<Weight> weights);

  /// A graph VIEW over externally-owned arrays — the zero-copy mmap path.
  /// `keep_alive` pins the backing storage (typically the
  /// `runtime::MappedFile` the spans point into) for the lifetime of this
  /// graph and every copy of it. `deep_validate` controls the O(V+E)
  /// invariant scan (monotone offsets, in-range destinations): the mmap
  /// loader skips it when the snapshot's checksum was already verified
  /// for this file — the cheap structural checks (offsets run 0..E,
  /// weights parallel to dst) always run. Throws std::invalid_argument.
  static CsrGraph from_view(std::span<const std::uint64_t> offsets,
                            std::span<const VertexId> dst,
                            std::span<const Weight> weights,
                            std::shared_ptr<const void> keep_alive,
                            bool deep_validate = true);

  /// True when the arrays live in external storage (an mmap'd snapshot)
  /// rather than heap vectors this graph owns. External storage is shared
  /// between processes by the page cache, so retaining it is free —
  /// DistributedGraph::localized() keeps the whole view instead of
  /// copying a rank's slice out of it.
  [[nodiscard]] bool has_external_storage() const noexcept {
    return external_storage_;
  }

  [[nodiscard]] VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(offsets_.size() - 1);
  }
  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return static_cast<std::uint64_t>(dst_.size());
  }
  /// True when a weight array is stored; without one every edge weighs 1.
  [[nodiscard]] bool is_weighted() const noexcept {
    return !weights_.empty();
  }

  [[nodiscard]] std::uint32_t out_degree(VertexId u) const {
    check_vertex(u);
    return static_cast<std::uint32_t>(offsets_[u + 1] - offsets_[u]);
  }

  [[nodiscard]] double avg_degree() const noexcept {
    return num_vertices() == 0 ? 0.0
                               : static_cast<double>(num_edges()) /
                                     static_cast<double>(num_vertices());
  }

  /// Vertex u's neighbors as a contiguous span of destination ids.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId u) const {
    check_vertex(u);
    return {dst_.data() + offsets_[u],
            static_cast<std::size_t>(offsets_[u + 1] - offsets_[u])};
  }

  /// Vertex u's edge weights (empty span when the graph is unweighted).
  [[nodiscard]] std::span<const Weight> weights(VertexId u) const {
    check_vertex(u);
    if (weights_.empty()) return {};
    return {weights_.data() + offsets_[u],
            static_cast<std::size_t>(offsets_[u + 1] - offsets_[u])};
  }

  /// Vertex u's adjacency as an Edge-yielding view (dst + weight).
  [[nodiscard]] EdgeSpan out(VertexId u) const {
    check_vertex(u);
    return EdgeSpan(dst_.data() + offsets_[u],
                    weights_.empty() ? nullptr : weights_.data() + offsets_[u],
                    static_cast<std::size_t>(offsets_[u + 1] - offsets_[u]));
  }

  /// Expand back into the mutable builder form (symmetrize/simplify
  /// workflows on loaded snapshots).
  [[nodiscard]] Graph to_graph() const;

  /// FNV-1a 64 over the raw array bytes (offsets, then dst, then weights).
  /// This is the integrity checksum the binary snapshot header stores, so
  /// "same checksum" means "byte-identical CSR arrays".
  [[nodiscard]] std::uint64_t checksum() const noexcept;

  /// Structural equality over the three CSR arrays (the storage backing
  /// is incidental and does not participate — a heap-loaded and an
  /// mmap-loaded snapshot compare equal when their arrays match byte for
  /// byte).
  friend bool operator==(const CsrGraph& a, const CsrGraph& b) {
    return std::equal(a.offsets_.begin(), a.offsets_.end(),
                      b.offsets_.begin(), b.offsets_.end()) &&
           std::equal(a.dst_.begin(), a.dst_.end(), b.dst_.begin(),
                      b.dst_.end()) &&
           std::equal(a.weights_.begin(), a.weights_.end(),
                      b.weights_.begin(), b.weights_.end());
  }

  // Raw array access (I/O and tests).
  [[nodiscard]] std::span<const std::uint64_t> offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] std::span<const VertexId> dst_array() const noexcept {
    return dst_;
  }
  [[nodiscard]] std::span<const Weight> weight_array() const noexcept {
    return weights_;
  }

 private:
  friend class Graph;

  /// The storage block an owning graph pins: the three heap vectors the
  /// view spans point into. (External views pin a MappedFile instead.)
  struct OwnedArrays {
    std::vector<std::uint64_t> offsets;
    std::vector<VertexId> dst;
    std::vector<Weight> weights;
  };

  /// Wrap freshly-built arrays: moves them into a shared OwnedArrays
  /// block and points the view spans at it. No validation — callers have
  /// already established the invariants.
  static CsrGraph adopt(OwnedArrays arrays);

  /// The shared invariant checks behind from_arrays/from_view. `deep`
  /// adds the O(V+E) monotonicity + destination-range scan.
  static void validate(std::span<const std::uint64_t> offsets,
                       std::span<const VertexId> dst,
                       std::span<const Weight> weights, bool deep);

  void check_vertex(VertexId u) const {
    if (u >= num_vertices()) throw std::out_of_range("CsrGraph: bad vertex id");
  }

  /// What a default-constructed (empty) graph's offsets span points at.
  static constexpr std::uint64_t kEmptyOffsets[1] = {0};

  // The view: spans over whatever `storage_` pins.
  std::span<const std::uint64_t> offsets_{kEmptyOffsets};  ///< V+1 entries
  std::span<const VertexId> dst_;                          ///< num_edges()
  std::span<const Weight> weights_;  ///< empty, or num_edges()

  /// Keep-alive handle for the spans' backing storage: an OwnedArrays
  /// block (built/loaded graphs), a runtime::MappedFile (zero-copy
  /// snapshots), or null (the empty graph). Copies share it.
  std::shared_ptr<const void> storage_;
  bool external_storage_ = false;
};

}  // namespace pregel::graph
