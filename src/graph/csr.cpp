#include "graph/csr.hpp"

#include <utility>

namespace pregel::graph {

namespace {

/// FNV-1a 64 folded over a raw byte range, seeded with the running hash so
/// successive arrays chain into one digest.
std::uint64_t fnv1a64(std::uint64_t h, const void* data, std::size_t bytes) {
  constexpr std::uint64_t kPrime = 0x100000001B3ull;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kPrime;
  }
  return h;
}

}  // namespace

void CsrGraph::validate(std::span<const std::uint64_t> offsets,
                        std::span<const VertexId> dst,
                        std::span<const Weight> weights, bool deep) {
  if (offsets.empty()) {
    throw std::invalid_argument("CsrGraph: offsets must have >= 1 entry");
  }
  if (offsets.front() != 0 || offsets.back() != dst.size()) {
    throw std::invalid_argument("CsrGraph: offsets must run 0..num_edges");
  }
  if (!weights.empty() && weights.size() != dst.size()) {
    throw std::invalid_argument("CsrGraph: weights must be empty or |E|");
  }
  if (!deep) return;
  for (std::size_t u = 1; u < offsets.size(); ++u) {
    if (offsets[u] < offsets[u - 1]) {
      throw std::invalid_argument("CsrGraph: offsets must be non-decreasing");
    }
  }
  const auto n = static_cast<VertexId>(offsets.size() - 1);
  for (const VertexId d : dst) {
    if (d >= n) throw std::invalid_argument("CsrGraph: destination out of range");
  }
}

CsrGraph CsrGraph::adopt(OwnedArrays arrays) {
  auto owned = std::make_shared<const OwnedArrays>(std::move(arrays));
  CsrGraph g;
  g.offsets_ = owned->offsets;
  g.dst_ = owned->dst;
  g.weights_ = owned->weights;
  g.storage_ = std::move(owned);
  return g;
}

CsrGraph CsrGraph::from_arrays(std::vector<std::uint64_t> offsets,
                               std::vector<VertexId> dst,
                               std::vector<Weight> weights) {
  validate(offsets, dst, weights, /*deep=*/true);
  return adopt(OwnedArrays{std::move(offsets), std::move(dst),
                           std::move(weights)});
}

CsrGraph CsrGraph::from_view(std::span<const std::uint64_t> offsets,
                             std::span<const VertexId> dst,
                             std::span<const Weight> weights,
                             std::shared_ptr<const void> keep_alive,
                             bool deep_validate) {
  validate(offsets, dst, weights, deep_validate);
  CsrGraph g;
  g.offsets_ = offsets;
  g.dst_ = dst;
  g.weights_ = weights;
  g.storage_ = std::move(keep_alive);
  g.external_storage_ = true;
  return g;
}

Graph CsrGraph::to_graph() const {
  Graph g(num_vertices());
  for (VertexId u = 0; u < num_vertices(); ++u) {
    for (std::uint64_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
      g.add_edge(u, dst_[i], weights_.empty() ? Weight{1} : weights_[i]);
    }
  }
  return g;
}

std::uint64_t CsrGraph::checksum() const noexcept {
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV offset basis
  h = fnv1a64(h, offsets_.data(), offsets_.size() * sizeof(std::uint64_t));
  h = fnv1a64(h, dst_.data(), dst_.size() * sizeof(VertexId));
  h = fnv1a64(h, weights_.data(), weights_.size() * sizeof(Weight));
  return h;
}

CsrGraph Graph::finalize() const {
  CsrGraph::OwnedArrays csr;
  csr.offsets.assign(static_cast<std::size_t>(num_vertices()) + 1, 0);
  for (VertexId u = 0; u < num_vertices(); ++u) {
    csr.offsets[u + 1] = csr.offsets[u] + out(u).size();
  }
  csr.dst.resize(static_cast<std::size_t>(num_edges()));

  // First pass packs destinations and detects whether any edge carries a
  // real weight; only then is the SoA weight array paid for.
  bool weighted = false;
  std::uint64_t pos = 0;
  for (VertexId u = 0; u < num_vertices(); ++u) {
    for (const Edge& e : out(u)) {
      csr.dst[pos++] = e.dst;
      weighted |= (e.weight != Weight{1});
    }
  }
  if (weighted) {
    csr.weights.resize(csr.dst.size());
    pos = 0;
    for (VertexId u = 0; u < num_vertices(); ++u) {
      for (const Edge& e : out(u)) csr.weights[pos++] = e.weight;
    }
  }
  return CsrGraph::adopt(std::move(csr));
}

}  // namespace pregel::graph
