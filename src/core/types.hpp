#pragma once
// Shared value-level vocabulary of the channel engine: vertex ids and
// combiners. `make_combiner(c_sum, 0.0)` is the exact construction the
// paper's Fig. 1 uses.

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

#include "graph/graph.hpp"

namespace pregel::core {

using graph::VertexId;
using KeyT = VertexId;  // the paper's name for vertex identifiers in APIs

/// Which function a combiner folds with: one of the stock functions below
/// (recognized by make_combiner) or a user function (kCustom).
enum class CombineOp : std::uint8_t { kCustom, kSum, kMin, kMax, kOr };

/// An associative, commutative binary function with an identity element.
/// Channels use combiners to merge message values for the same receiver
/// (sender side and receiver side), aggregators use them to fold global
/// contributions.
///
/// `op` names the stock function make_combiner recognized, so per-message
/// loops can fold with it inline (with_fold() below) instead of through
/// `fn`; `fn` always holds the same function, so either way computes the
/// same bits.
///
/// `exact` marks combiners whose fold may be regrouped into contiguous
/// segments without changing a single bit of the result — selections
/// (min/max/or) and integer sums. Combiner channels use it to combine at
/// stage time (one partial per compute slot, merged in slot order at
/// serialize); inexact folds (floating-point sums) keep their raw message
/// logs so the merged fold replays the sequential order message by
/// message. Leave it false when unsure: the only cost is staging memory.
template <typename T>
struct Combiner {
  std::function<T(const T&, const T&)> fn;
  T identity{};
  bool exact = false;
  CombineOp op = CombineOp::kCustom;

  T operator()(const T& a, const T& b) const { return fn(a, b); }
};

// The stock combining functions the paper's examples use.
inline constexpr auto c_sum = [](const auto& a, const auto& b) {
  return a + b;
};
inline constexpr auto c_min = [](const auto& a, const auto& b) {
  return a < b ? a : b;
};
inline constexpr auto c_max = [](const auto& a, const auto& b) {
  return a < b ? b : a;
};
inline constexpr auto c_or = [](const auto& a, const auto& b) {
  return a || b;
};

/// The stock op `Fn` is, by type; kCustom for any other function.
template <typename Fn>
inline constexpr CombineOp kStockOp =
    std::is_same_v<Fn, std::decay_t<decltype(c_sum)>>   ? CombineOp::kSum
    : std::is_same_v<Fn, std::decay_t<decltype(c_min)>> ? CombineOp::kMin
    : std::is_same_v<Fn, std::decay_t<decltype(c_max)>> ? CombineOp::kMax
    : std::is_same_v<Fn, std::decay_t<decltype(c_or)>>  ? CombineOp::kOr
                                                        : CombineOp::kCustom;

template <typename T, typename Fn>
Combiner<T> make_combiner(Fn&& f, T identity) {
  // Folds that regroup exactly: selections always (they return one of
  // their inputs), sums only over integers (IEEE float addition is not
  // associative). Custom functions default to inexact; pass `exact`
  // explicitly when theirs regroups.
  constexpr CombineOp op = kStockOp<std::decay_t<Fn>>;
  constexpr bool exact =
      op == CombineOp::kSum ? std::is_integral_v<T> : op != CombineOp::kCustom;
  return Combiner<T>{std::forward<Fn>(f), std::move(identity), exact, op};
}

template <typename T, typename Fn>
Combiner<T> make_combiner(Fn&& f, T identity, bool exact) {
  return Combiner<T>{std::forward<Fn>(f), std::move(identity), exact,
                     kStockOp<std::decay_t<Fn>>};
}

/// Run body(fold) once, with `fold` a callable T(const T&, const T&)
/// computing c's function: the stock op inline when c has one and T is
/// arithmetic, else a call through c.fn. Per-message loops dispatch here
/// once per batch, so each stock op gets its own instantiation of the
/// loop and a message pays no indirect call.
template <typename T, typename Body>
void with_fold(const Combiner<T>& c, Body&& body) {
  if constexpr (std::is_arithmetic_v<T>) {
    switch (c.op) {
      case CombineOp::kSum:
        return body([](const T& a, const T& b) -> T { return c_sum(a, b); });
      case CombineOp::kMin:
        return body([](const T& a, const T& b) -> T { return c_min(a, b); });
      case CombineOp::kMax:
        return body([](const T& a, const T& b) -> T { return c_max(a, b); });
      case CombineOp::kOr:
        return body([](const T& a, const T& b) -> T { return c_or(a, b); });
      case CombineOp::kCustom:
        break;
    }
  }
  body([&fn = c.fn](const T& a, const T& b) -> T { return fn(a, b); });
}

}  // namespace pregel::core
