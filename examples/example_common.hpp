#pragma once
// Shared glue for the example binaries: every example accepts EITHER a
// synthetic-graph size (a number) OR a dataset path as its first
// argument. A path may be an edge-list text file (with or without the
// "num_vertices [weighted]" header — raw SNAP downloads work) or a binary
// CSR snapshot produced by tools/graph_convert, which loads in
// milliseconds. The loaded graph is expanded to the builder form so each
// example can keep symmetrizing / bidirecting exactly as it does for its
// synthetic input.
//
// Numeric arguments are parsed strictly: non-numeric text, trailing junk
// or a value out of range prints a message naming the argument and exits
// 2, instead of silently running some other configuration.

#include <cctype>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>

#include "core/launch_config.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "runtime/env.hpp"

namespace examples {

/// Largest synthetic vertex count: rmat() rounds V up to a power of two,
/// which must fit a 32-bit vertex id.
inline constexpr long long kMaxVertices = 1LL << 31;

/// parse(argv[index]), or `fallback` when the argument is absent. The
/// std::invalid_argument a runtime::parse_* call throws for bad text
/// ends the program: its message, which names the argument, then exit 2.
template <typename T, typename Parse>
T arg_or(int argc, char** argv, int index, T fallback, Parse parse) {
  if (argc <= index) return fallback;
  try {
    return static_cast<T>(parse(argv[index]));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    std::exit(2);
  }
}

/// argv[index] as an integer in [lo, hi] (arg_or).
inline long long int_arg(int argc, char** argv, int index, const char* name,
                         long long lo, long long hi, long long fallback) {
  return arg_or(argc, argv, index, fallback, [&](const char* text) {
    return pregel::runtime::parse_int64(name, text, lo, hi);
  });
}

/// Worker count for an example run: argv[index] (1..INT_MAX), else
/// `fallback`. A multi-process run (tools/pgch_launch sets PGCH_WORLD)
/// dictates the partition's worker count — every rank must build the
/// identical partition — so it overrides the positional argument.
inline int num_workers_arg(int argc, char** argv, int index, int fallback) {
  const auto workers = static_cast<int>(
      int_arg(argc, argv, index, "num_workers", 1, INT_MAX, fallback));
  const int world = pregel::core::LaunchConfig::from_env().world_size;
  return world > 0 ? world : workers;
}

inline bool numeric(const char* s) {
  if (*s == '\0') return false;
  for (; *s != '\0'; ++s) {
    if (std::isdigit(static_cast<unsigned char>(*s)) == 0) return false;
  }
  return true;
}

/// The first positional argument as a dataset: loads when it is a path,
/// nullopt when absent or numeric (synthetic-size mode).
inline std::optional<pregel::graph::Graph> graph_arg(int argc, char** argv) {
  if (argc > 1 && !numeric(argv[1])) {
    return pregel::graph::load_any(argv[1]).to_graph();
  }
  return std::nullopt;
}

}  // namespace examples
