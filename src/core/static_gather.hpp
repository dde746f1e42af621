#pragma once
// StaticGather: a static messaging pattern grouped by receiver once, then
// folded per receiver every superstep (Section IV-C1, Fig. 5). It is the
// sender side of ScatterCombine and of CombinedMessage's full publish
// (DESIGN.md section 9); each channel keeps its own wire format.
//
// Laid out over all destination ranks: rank `to` owns runs
// [rank_run_[to], rank_run_[to + 1]), one run per unique receiver, and
// run u lists its senders at src_[run_[u], run_[u + 1]) in edge arrival
// order — the order the fold visits them, so the fold (and float bits)
// are those of a per-edge send loop over the same edges. Run offsets are
// 64-bit, so a rank may hold any number of edges.
//
// The fold fans over the engine's comm slots by splitting the edge space
// evenly and aligning each bound down to a run start (runs vary wildly in
// size on skewed graphs). A run is folded by one slot and lands at a
// fixed position of its rank's section, so the bytes are independent of
// the slot count.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/engine_base.hpp"
#include "graph/distributed.hpp"

namespace pregel::core {

/// The order a StaticGather lists each destination rank's receivers in.
enum class ReceiverOrder : std::uint8_t {
  kFirstTouch,  ///< first appearance in the edge scan
  kAscending,   ///< ascending local index
};

class StaticGather {
 public:
  /// Group the edges `for_each_edge(visit)` yields, as visit(sender lidx,
  /// receiver global id, weight), by receiver. `for_each_edge` is called
  /// twice and must yield the same edges in the same order; each pass keys
  /// every edge once into a V-entry map (key = the owner's base plus the
  /// receiver's local index). Pass 1 counts senders per key; the layout
  /// turns each count into its run and the key into the run's index; pass
  /// 2 drops every sender (and weight) into its receiver's run. O(E + V)
  /// time plus the transient key map (and, for kFirstTouch, the U keys in
  /// first-touch order).
  template <typename ForEachEdge>
  void build(const graph::DistributedGraph& dg, ReceiverOrder order,
             ForEachEdge&& for_each_edge) {
    const auto workers = static_cast<std::size_t>(dg.num_workers());
    std::vector<std::uint64_t> base(workers + 1, 0);
    for (std::size_t r = 0; r < workers; ++r) {
      base[r + 1] = base[r] + dg.num_local(static_cast<int>(r));
    }
    const bool first_touch = order == ReceiverOrder::kFirstTouch;

    // Pass 1: key_map[k] = receiver k's sender count. `first` lists the
    // keys in first-touch order; reserving a slot per key costs address
    // space only, as pages past the receiver count are never touched.
    std::vector<std::uint32_t> key_map(base[workers], 0);
    std::vector<std::uint32_t> first;
    if (first_touch) first.reserve(base[workers]);
    bool unit = true;
    for_each_edge([&](std::uint32_t, graph::VertexId dst, graph::Weight w) {
      const std::uint64_t k =
          base[static_cast<std::size_t>(dg.owner(dst))] + dg.local_index(dst);
      const std::uint32_t senders = ++key_map[k];
      if (senders == 1 && first_touch) {
        first.push_back(static_cast<std::uint32_t>(k));
      } else if (senders == 0) {
        throw std::length_error(
            "StaticGather: a receiver has 2^32 or more senders on one rank");
      }
      unit = unit && w == 1;
    });

    // Lay the runs out rank by rank in `order` (kFirstTouch filters the
    // first-touch keys once per rank); key_map[k] becomes the global run
    // index and run_[u] the start of run u.
    rank_run_.assign(workers + 1, 0);
    dst_.clear();
    run_.assign(1, 0);
    for (std::size_t to = 0; to < workers; ++to) {
      const auto place = [&](std::uint64_t k) {
        dst_.push_back(static_cast<std::uint32_t>(k - base[to]));
        run_.push_back(run_.back() + key_map[k]);
        key_map[k] = static_cast<std::uint32_t>(dst_.size() - 1);
      };
      if (first_touch) {
        for (const std::uint32_t k : first) {
          if (k >= base[to] && k < base[to + 1]) place(k);
        }
      } else {
        for (std::uint64_t k = base[to]; k < base[to + 1]; ++k) {
          if (key_map[k] != 0) place(k);
        }
      }
      rank_run_[to + 1] = dst_.size();
    }

    // Pass 2: run_[u] is run u's fill cursor; afterwards it holds run
    // u + 1's start, so one shift restores the offsets.
    src_.resize(run_.back());
    weights_.clear();
    if (!unit) weights_.resize(run_.back());
    for_each_edge([&](std::uint32_t src, graph::VertexId dst,
                      graph::Weight w) {
      const std::uint64_t at =
          run_[key_map[base[static_cast<std::size_t>(dg.owner(dst))] +
                       dg.local_index(dst)]]++;
      src_[at] = src;
      if (!unit) weights_[at] = w;
    });
    std::copy_backward(run_.begin(), run_.end() - 1, run_.end());
    run_[0] = 0;
  }

  [[nodiscard]] bool built() const noexcept { return !rank_run_.empty(); }

  /// Destination rank `to`'s receivers (local indices), in run order.
  [[nodiscard]] std::size_t receivers(int to) const {
    const auto t = static_cast<std::size_t>(to);
    return rank_run_[t + 1] - rank_run_[t];
  }
  [[nodiscard]] const std::uint32_t* receiver_lidx(int to) const {
    return dst_.data() + rank_run_[static_cast<std::size_t>(to)];
  }

  /// Whether every edge weight is 1 (no weights are stored then).
  [[nodiscard]] bool unit() const noexcept { return weights_.empty(); }
  [[nodiscard]] graph::Weight weight(std::uint64_t i) const {
    return weights_[i];
  }

  /// Per run u of rank `to`: acc = contrib(src_0, i_0), then
  /// acc = fold(acc, contrib(src_i, i)) over the rest of the run, left to
  /// right; then emit(to, u's position in the rank, receiver lidx, acc).
  /// `i` is the edge's index (for weight()). Fanned over `engine`'s comm
  /// slots; emit must write only its (to, position) slot.
  template <typename Fold, typename Contrib, typename Emit>
  void fold_runs(EngineBase& engine, Fold fold, Contrib contrib,
                 Emit emit) const {
    const std::uint64_t edges = run_.back();
    const auto slots = static_cast<std::uint32_t>(engine.compute_threads());
    const auto run_at = [this](std::uint64_t e) {
      return static_cast<std::size_t>(
          std::lower_bound(run_.begin(), run_.end(), e) - run_.begin());
    };
    engine.run_comm_partitioned(
        edges, slots, nullptr,
        [&](std::uint32_t lo, std::uint32_t hi, int) {
          fold_range(run_at(edges * lo / slots), run_at(edges * hi / slots),
                     fold, contrib, emit);
        });
  }

 private:
  template <typename Fold, typename Contrib, typename Emit>
  void fold_range(std::size_t r_begin, std::size_t r_end, Fold& fold,
                  Contrib& contrib, Emit& emit) const {
    if (r_begin >= r_end) return;
    auto to = static_cast<std::size_t>(
        std::upper_bound(rank_run_.begin(), rank_run_.end(), r_begin) -
        rank_run_.begin() - 1);
    const std::uint32_t* src = src_.data();
    for (std::size_t u = r_begin; u < r_end; ++u) {
      while (u >= rank_run_[to + 1]) ++to;
      std::uint64_t i = run_[u];
      const std::uint64_t last = run_[u + 1];
      auto acc = contrib(src[i], i);
      for (++i; i < last; ++i) acc = fold(acc, contrib(src[i], i));
      emit(static_cast<int>(to), u - rank_run_[to], dst_[u], acc);
    }
  }

  std::vector<std::size_t> rank_run_;   ///< W + 1 run index bounds
  std::vector<std::uint32_t> dst_;      ///< receiver lidx per run — U
  std::vector<std::uint64_t> run_;      ///< U + 1 offsets into src_
  std::vector<std::uint32_t> src_;      ///< sender lidx by run — E
  std::vector<graph::Weight> weights_;  ///< parallel to src_; empty when
                                        ///< every weight is 1
};

}  // namespace pregel::core
