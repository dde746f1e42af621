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
  /// twice and must yield the same edges in the same order. The first
  /// pass numbers each rank's receivers in first-touch order and counts
  /// their senders, the second drops every sender (and weight) into its
  /// receiver's run. O(E + V) time plus a transient V-entry key map.
  template <typename ForEachEdge>
  void build(const graph::DistributedGraph& dg, ReceiverOrder order,
             ForEachEdge&& for_each_edge) {
    constexpr std::uint32_t kUnseen = ~std::uint32_t{0};
    const auto workers = static_cast<std::size_t>(dg.num_workers());
    std::vector<std::uint64_t> base(workers + 1, 0);
    for (std::size_t r = 0; r < workers; ++r) {
      base[r + 1] = base[r] + dg.num_local(static_cast<int>(r));
    }
    const auto key = [&](graph::VertexId dst) {
      return base[static_cast<std::size_t>(dg.owner(dst))] +
             dg.local_index(dst);
    };

    // Pass 1: run_of[key] = the receiver's first-touch number in its rank.
    std::vector<std::uint32_t> run_of(base[workers], kUnseen);
    std::vector<std::vector<std::uint32_t>> touched(workers);
    std::vector<std::vector<std::uint64_t>> count(workers);
    bool unit = true;
    for_each_edge([&](std::uint32_t, graph::VertexId dst, graph::Weight w) {
      const auto to = static_cast<std::size_t>(dg.owner(dst));
      const std::uint32_t lidx = dg.local_index(dst);
      std::uint32_t& run = run_of[base[to] + lidx];
      if (run == kUnseen) {
        run = static_cast<std::uint32_t>(touched[to].size());
        touched[to].push_back(lidx);
        count[to].push_back(0);
      }
      ++count[to][run];
      unit = unit && w == 1;
    });

    // Lay the runs out rank by rank in `order`; run_of becomes the global
    // run index and run_[u] the end of run u - 1.
    rank_run_.assign(workers + 1, 0);
    dst_.clear();
    run_.assign(1, 0);
    const auto place = [&](std::uint64_t k, std::uint32_t lidx,
                           std::uint64_t senders) {
      run_of[k] = static_cast<std::uint32_t>(dst_.size());
      dst_.push_back(lidx);
      run_.push_back(run_.back() + senders);
    };
    for (std::size_t to = 0; to < workers; ++to) {
      if (order == ReceiverOrder::kFirstTouch) {
        for (std::size_t t = 0; t < touched[to].size(); ++t) {
          place(base[to] + touched[to][t], touched[to][t], count[to][t]);
        }
      } else {
        for (std::uint64_t k = base[to]; k < base[to + 1]; ++k) {
          if (run_of[k] != kUnseen) {
            place(k, static_cast<std::uint32_t>(k - base[to]),
                  count[to][run_of[k]]);
          }
        }
      }
      rank_run_[to + 1] = dst_.size();
      std::vector<std::uint32_t>().swap(touched[to]);
      std::vector<std::uint64_t>().swap(count[to]);
    }

    // Pass 2: run_[u] is run u's fill cursor; afterwards it holds run
    // u + 1's start, so one shift restores the offsets.
    src_.resize(run_.back());
    weights_.clear();
    if (!unit) weights_.resize(run_.back());
    for_each_edge([&](std::uint32_t src, graph::VertexId dst,
                      graph::Weight w) {
      const std::uint64_t at = run_[run_of[key(dst)]]++;
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
