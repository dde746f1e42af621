#pragma once
// RequestRespond: optimized channel for the request-respond paradigm
// (Section IV-C2, Fig. 6): every vertex may request an attribute of any
// other vertex; two communication rounds inside one superstep form the
// conversation, and the answer is readable the next superstep.
//
// Load-balance optimization: requests for the same destination are merged
// per worker (sort + unique), so a hot vertex (e.g. the root in pointer
// jumping) answers each *worker* once instead of each requester once.
//
// Message-size optimization over Pregel+'s reqresp mode: a request batch
// is a bare id list and the response batch is a bare value list *in
// exactly the same order* — the (id, value) pairing Pregel+ ships back is
// reconstructed positionally (Section V-B2's analysis: "the receiver sends
// back a list of values in exactly the same order").

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/channel.hpp"
#include "core/types.hpp"
#include "core/worker.hpp"

namespace pregel::core {

template <typename VertexT, typename RespT>
  requires runtime::TriviallySerializable<RespT>
class RequestRespond : public Channel {
 public:
  /// Produces the response for a requested vertex. CONTRACT: must only
  /// READ vertex/worker state — whenever the worker runs with more than
  /// one thread (PGCH_COMPUTE_THREADS) it is invoked concurrently from the
  /// pool, so a respond function that mutates shared state (memoization
  /// tables, counters) races. Keep such state out of respond functions. The
  /// respond functions in this repository (algorithms/sv.hpp,
  /// algorithms/pointer_jumping.hpp) only read the requested vertex.
  using RespondFn = std::function<RespT(const VertexT&)>;

  RequestRespond(Worker<VertexT>* w, RespondFn f,
                 std::string name = "reqresp")
      : Channel(w, std::move(name)),
        worker_(w),
        respond_fn_(std::move(f)),
        requested_dst_(w->num_local(), graph::kInvalidVertex),
        last_requested_(w->num_local(), graph::kInvalidVertex),
        sent_requests_(static_cast<std::size_t>(w->num_workers())),
        received_vals_(static_cast<std::size_t>(w->num_workers())),
        pending_replies_(static_cast<std::size_t>(w->num_workers())) {}

  /// Request dst's attribute on behalf of the current vertex. The response
  /// is available through get_respond() in the next superstep.
  void add_request(KeyT dst) {
    requested_dst_[w().current_local()] = dst;  // per-vertex slot: no race
    if (par_.active()) {
      par_.stage(dst);
      return;
    }
    requests_.push_back(dst);
  }

  void begin_compute(int num_chunks) override { par_.open(num_chunks); }

  void end_compute() override {
    par_.replay([this](const KeyT dst) { requests_.push_back(dst); });
  }

  /// Response for the request the current vertex made last superstep.
  [[nodiscard]] const RespT& get_respond() const {
    const KeyT dst = last_requested_[w().current_local()];
    if (dst == graph::kInvalidVertex) {
      throw std::logic_error(
          "RequestRespond: get_respond() without a previous add_request()");
    }
    return get_respond(dst);
  }

  /// Response for an explicit destination requested last superstep.
  /// Lookup: requests to one worker were sent as a sorted unique id list
  /// and answered positionally, so one binary search in that worker's
  /// list yields the index of its reply.
  [[nodiscard]] const RespT& get_respond(KeyT dst) const {
    const auto peer = static_cast<std::size_t>(w().owner_of(dst));
    const auto& sent = sent_requests_[peer];
    const auto it = std::lower_bound(sent.begin(), sent.end(), dst);
    if (it == sent.end() || *it != dst) {
      throw std::logic_error("RequestRespond: no response for this vertex");
    }
    return received_vals_[peer][static_cast<std::size_t>(it - sent.begin())];
  }

  [[nodiscard]] bool has_respond(KeyT dst) const {
    const auto peer = static_cast<std::size_t>(w().owner_of(dst));
    const auto& sent = sent_requests_[peer];
    return std::binary_search(sent.begin(), sent.end(), dst) &&
           !received_vals_[peer].empty();
  }

  void serialize() override {
    if (phase_ == Phase::kRequest) {
      serialize_requests();
    } else {
      serialize_responses();
    }
  }

  /// Delivery (DESIGN.md section 8). The request round's hot half is
  /// producing the responses — one respond_fn_ call per deduplicated
  /// request — so that fans over the pool by contiguous ranges of the
  /// peers' concatenated request lists (each reply lands at its fixed
  /// position; the wire order is the same for any slot count).
  /// respond_fn_ is then invoked concurrently and must only READ vertex
  /// state — true for the attribute lookups the paradigm is for. The
  /// response round is bulk copies plus the requester wake-up scan and
  /// stays sequential.
  void deserialize() override {
    if (phase_ == Phase::kRequest) {
      deserialize_requests();
      phase_ = Phase::kRespond;
    } else {
      deserialize_responses();
      phase_ = Phase::kRequest;
    }
  }

  bool again() override {
    // The response round always runs (possibly with empty payloads): phase
    // state must stay in lock-step across supersteps even when no vertex
    // happened to request anything this superstep.
    return phase_ == Phase::kRespond;
  }

 private:
  enum class Phase { kRequest, kRespond };

  void serialize_requests() {
    // Results from the previous superstep have been read; reset.
    last_requested_.swap(requested_dst_);
    std::fill(requested_dst_.begin(), requested_dst_.end(),
              graph::kInvalidVertex);

    // Bucket by owner, then merge duplicates per bucket (sort + unique):
    // the per-worker sorted id list both defines the wire order of the
    // replies and serves as the lookup index for get_respond().
    const int num_workers = w().num_workers();
    for (auto& bucket : sent_requests_) bucket.clear();
    for (auto& vals : received_vals_) vals.clear();
    for (const KeyT dst : requests_) {
      sent_requests_[static_cast<std::size_t>(w().owner_of(dst))].push_back(
          dst);
    }
    requests_.clear();
    for (int to = 0; to < num_workers; ++to) {
      auto& mine = sent_requests_[static_cast<std::size_t>(to)];
      std::sort(mine.begin(), mine.end());
      mine.erase(std::unique(mine.begin(), mine.end()), mine.end());
      runtime::Buffer& out = w().outbox(to);
      out.write<std::uint32_t>(static_cast<std::uint32_t>(mine.size()));
      for (const KeyT dst : mine) {
        out.write<std::uint32_t>(w().local_of(dst));
      }
    }
  }

  /// Produce the responses over the pool: the peers' pre-sized reply
  /// lists, laid end to end in peer order, form one index space that
  /// run_comm_partitioned splits into contiguous ranges, so the reply
  /// order — and therefore the wire — is the same for any slot count. The
  /// requested vertex is "automatically involved": its response is
  /// produced here, no compute() needed (Section IV-C2).
  void deserialize_requests() {
    const int num_workers = w().num_workers();
    if (req_spans_.empty()) {
      req_spans_.resize(static_cast<std::size_t>(num_workers));
    }
    std::uint64_t total = 0;
    for (int from = 0; from < num_workers; ++from) {
      runtime::Buffer& in = w().inbox(from);
      const auto n = in.read<std::uint32_t>();
      req_spans_[static_cast<std::size_t>(from)] = {in.read_ptr(), n};
      in.skip(std::size_t{n} * sizeof(std::uint32_t));
      auto& replies = pending_replies_[static_cast<std::size_t>(from)];
      replies.clear();
      replies.resize(n);
      total += n;
    }
    if (total > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error(name() + ": over 2^32-1 requests in a round");
    }
    w().run_comm_partitioned(
        total, static_cast<std::uint32_t>(total), nullptr,
        [this](std::uint32_t lo, std::uint32_t hi, int) {
          produce_replies(lo, hi);
        });
  }

  /// Fill replies [lo, hi) of the peers' reply lists laid end to end.
  void produce_replies(std::uint64_t lo, std::uint64_t hi) {
    std::uint64_t base = 0;
    for (int from = 0; from < w().num_workers() && base < hi; ++from) {
      const auto& [ptr, n] = req_spans_[static_cast<std::size_t>(from)];
      auto& replies = pending_replies_[static_cast<std::size_t>(from)];
      for (std::uint64_t i = std::max(lo, base); i < std::min(hi, base + n);
           ++i) {
        std::uint32_t lidx;
        std::memcpy(&lidx, ptr + (i - base) * sizeof(std::uint32_t),
                    sizeof(std::uint32_t));
        detail::check_local_index(lidx, worker_->num_local(), name());
        // local_vertex returns a handle by value; respond_fn_ takes it as
        // const VertexT&, which binds to the temporary for this call.
        replies[static_cast<std::size_t>(i - base)] =
            respond_fn_(worker_->local_vertex(lidx));
      }
      base += n;
    }
  }

  void serialize_responses() {
    const int num_workers = w().num_workers();
    for (int to = 0; to < num_workers; ++to) {
      runtime::Buffer& out = w().outbox(to);
      auto& replies = pending_replies_[static_cast<std::size_t>(to)];
      out.write<std::uint32_t>(static_cast<std::uint32_t>(replies.size()));
      if (!replies.empty()) {
        // Bare value list — order matches the id list the requester sent.
        out.write_bytes(replies.data(), replies.size() * sizeof(RespT));
        replies.clear();
      }
    }
  }

  void deserialize_responses() {
    const int num_workers = w().num_workers();
    for (int from = 0; from < num_workers; ++from) {
      runtime::Buffer& in = w().inbox(from);
      const auto n = in.read<std::uint32_t>();
      const auto& mine = sent_requests_[static_cast<std::size_t>(from)];
      if (n != mine.size()) {
        throw std::logic_error("RequestRespond: response count mismatch");
      }
      auto& vals = received_vals_[static_cast<std::size_t>(from)];
      vals.resize(n);
      if (n != 0) in.read_bytes(vals.data(), std::size_t{n} * sizeof(RespT));
    }
    // Requesters might have voted to halt after requesting; wake them so
    // they can read their answers.
    for (std::uint32_t lidx = 0;
         lidx < static_cast<std::uint32_t>(last_requested_.size()); ++lidx) {
      if (last_requested_[lidx] != graph::kInvalidVertex) {
        worker_->activate_local(lidx);
      }
    }
  }

  Worker<VertexT>* worker_;
  RespondFn respond_fn_;
  Phase phase_ = Phase::kRequest;

  // Requester side.
  std::vector<KeyT> requests_;               ///< staged by add_request
  std::vector<KeyT> requested_dst_;          ///< per lidx, this superstep
  std::vector<KeyT> last_requested_;         ///< per lidx, previous superstep
  std::vector<std::vector<KeyT>> sent_requests_;  ///< per worker, sorted
  std::vector<std::vector<RespT>> received_vals_;  ///< parallel per worker

  // Responder side.
  std::vector<std::vector<RespT>> pending_replies_;  ///< per requester worker
  /// Raw request-id span per requester worker (round-scoped scratch of
  /// the respond production).
  std::vector<std::pair<const std::byte*, std::uint32_t>> req_spans_;

  // Parallel compute staging for the shared request list (see
  // Channel::begin_compute).
  detail::ChunkStagedLog<KeyT> par_;
};

}  // namespace pregel::core
