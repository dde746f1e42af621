#pragma once
// Umbrella header: the complete public API of the channel-based
// vertex-centric engine (the paper's system).
//
//   #include "core/pregel_channel.hpp"
//
// gives you Worker<VertexT>, Vertex<ValueT>, launch(), the three standard
// channels (DirectMessage, CombinedMessage, Aggregator — paper Table I)
// and the three optimized channels (ScatterCombine, RequestRespond,
// Propagation — paper Table II; Propagation also takes Fig. 7's per-edge
// f(value, weight)).

#include "core/aggregator.hpp"        // IWYU pragma: export
#include "core/channel.hpp"           // IWYU pragma: export
#include "core/combined_message.hpp"  // IWYU pragma: export
#include "core/direct_message.hpp"    // IWYU pragma: export
#include "core/propagation.hpp"       // IWYU pragma: export
#include "core/request_respond.hpp"   // IWYU pragma: export
#include "core/scatter_combine.hpp"   // IWYU pragma: export
#include "core/types.hpp"             // IWYU pragma: export
#include "core/vertex.hpp"            // IWYU pragma: export
#include "core/worker.hpp"            // IWYU pragma: export
