#pragma once
// Vertex<ValueT>: the per-vertex record handed to compute() — now a
// lightweight non-owning *handle* (DESIGN.md section 6). The engine keeps
// vertex state as structure-of-arrays columns (a packed ValueT array plus
// a runtime::ActiveSet frontier bitset); a handle is constructed on the
// fly from (global id, local index, CSR adjacency span, value slot,
// frontier) and carries no storage of its own. The user-facing API —
// id(), value(), edges(), vote_to_halt(), activate(), is_active() — is
// unchanged, so paper-shaped algorithm code compiles as before.

#include "core/types.hpp"
#include "graph/csr.hpp"
#include "graph/distributed.hpp"
#include "runtime/active_set.hpp"
#include "runtime/buffer.hpp"

namespace pregel::core {

template <typename>
class VertexColumns;

template <typename ValueT>
class Vertex {
 public:
  using value_type = ValueT;

  [[nodiscard]] VertexId id() const noexcept { return id_; }

  ValueT& value() noexcept { return *value_; }
  const ValueT& value() const noexcept { return *value_; }

  /// Outgoing adjacency: a contiguous view into the shared CSR arrays
  /// (graph/csr.hpp). Iteration yields graph::Edge values.
  [[nodiscard]] graph::EdgeSpan edges() const noexcept { return edges_; }
  [[nodiscard]] std::uint32_t out_degree() const noexcept {
    return static_cast<std::uint32_t>(edges_.size());
  }

  /// Pregel halting: an inactive vertex is skipped by compute() until a
  /// channel re-activates it (message arrival). These flip the vertex's
  /// bit in the engine's shared ActiveSet with an atomic word-OR/AND, so
  /// they are safe from parallel compute threads.
  void vote_to_halt() noexcept { active_->clear(lidx_); }
  void activate() noexcept { active_->set(lidx_); }
  [[nodiscard]] bool is_active() const noexcept {
    return active_->test(lidx_);
  }

 private:
  template <typename>
  friend class VertexColumns;

  Vertex(VertexId id, std::uint32_t lidx, graph::EdgeSpan edges,
         ValueT* value, runtime::ActiveSet* active) noexcept
      : id_(id), lidx_(lidx), edges_(edges), value_(value), active_(active) {}

  VertexId id_;
  std::uint32_t lidx_;
  graph::EdgeSpan edges_;
  ValueT* value_;
  runtime::ActiveSet* active_;
};

/// The structure-of-arrays vertex store shared by all three engines
/// (channel Worker, PPWorker, BlockWorker): one packed ValueT column plus
/// the ActiveSet frontier. Engines inherit this and hand out Vertex
/// handles built on demand; nothing per-vertex is heap-allocated and the
/// id/adjacency never leave the shared partition/CSR arrays.
template <typename VertexT>
class VertexColumns {
 public:
  using ValueT = typename VertexT::value_type;

  /// Non-owning handle for a local vertex, built on the fly (returned by
  /// value — its value()/activity accessors reach into the columns, which
  /// outlive it).
  [[nodiscard]] VertexT local_vertex(std::uint32_t lidx) noexcept {
    return handle(lidx);
  }
  /// Const access returns a const-qualified handle: the mutating API
  /// (value()&, activate(), vote_to_halt()) does not compile on it.
  /// (Copying the handle would shed the qualifier — don't; const workers
  /// are read-only by contract, e.g. concurrent collect callbacks.)
  [[nodiscard]] const VertexT local_vertex(std::uint32_t lidx) const noexcept {
    return const_cast<VertexColumns*>(this)->handle(lidx);
  }

  /// Iterate all local vertices (used by result collectors).
  template <typename Fn>
  void for_each_vertex(Fn&& fn) {
    const std::uint32_t n = num_columns();
    for (std::uint32_t lidx = 0; lidx < n; ++lidx) {
      VertexT v = handle(lidx);
      fn(v);
    }
  }
  /// Read-only iteration: the handle is passed as `const VertexT&`.
  template <typename Fn>
  void for_each_vertex(Fn&& fn) const {
    const std::uint32_t n = num_columns();
    for (std::uint32_t lidx = 0; lidx < n; ++lidx) {
      const VertexT v = const_cast<VertexColumns*>(this)->handle(lidx);
      fn(v);
    }
  }

 protected:
  /// Frontier density threshold shared by every engine: below 1/4 of the
  /// slice the compute phase word-scans only the ActiveSet's set bits; at
  /// or above it the plain linear scan wins (no per-bit bookkeeping), so
  /// all-active workloads pay nothing. One definition keeps the engines'
  /// dense/sparse dispatch identical for the same frontier (the
  /// apples-to-apples baseline requirement).
  static constexpr std::uint32_t kSparseDenominator = 4;

  [[nodiscard]] bool frontier_is_sparse() const noexcept {
    return static_cast<std::uint64_t>(active_.count()) * kSparseDenominator <
           static_cast<std::uint64_t>(num_columns());
  }

  /// Allocate the columns for `rank`'s slice of `dg`: default-constructed
  /// values, every vertex active (Pregel's initial state).
  void init_columns(const graph::DistributedGraph& dg, int rank) {
    col_dg_ = &dg;
    col_rank_ = rank;
    values_.assign(dg.num_local(rank), ValueT{});
    active_.reset(dg.num_local(rank), /*value=*/true);
  }

  /// Wake every local vertex. Programs call it from begin_superstep()
  /// only — the frontier is quiescent there (no compute or delivery
  /// slot is running) — when a new phase starts work that no message
  /// announces.
  void activate_all() { active_.fill(true); }

  [[nodiscard]] std::uint32_t num_columns() const noexcept {
    return static_cast<std::uint32_t>(values_.size());
  }

  [[nodiscard]] VertexT handle(std::uint32_t lidx) noexcept {
    return VertexT(col_dg_->global_id(col_rank_, lidx), lidx,
                   col_dg_->out(col_rank_, lidx), &values_[lidx], &active_);
  }

  std::vector<ValueT> values_;  ///< packed per-vertex user values
  runtime::ActiveSet active_;   ///< the frontier: which vertices compute

 private:
  const graph::DistributedGraph* col_dg_ = nullptr;
  int col_rank_ = 0;
};

}  // namespace pregel::core
