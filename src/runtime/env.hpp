#pragma once
// Strict parsing of the numeric and boolean PGCH_* environment knobs. A
// typo must fail loudly: atoi("abc") is 0, which silently turns a
// misspelled thread count or port into a default the user never asked
// for, and atoi("true") is 0 too.

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace pregel::runtime {

/// Integer value of environment variable `name`, clamped to
/// [lo, INT_MAX]; `fallback` (returned as is) when the variable is unset
/// or empty. Non-numeric text, trailing junk or a value beyond the 64-bit
/// range throws std::invalid_argument naming the variable.
inline int env_int(const char* name, int fallback, int lo = INT_MIN) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(std::string(name) +
                                " must be an integer, got '" + text + "'");
  }
  return static_cast<int>(std::clamp<long long>(v, lo, INT_MAX));
}

/// Boolean value of environment variable `name`: exactly "0" or "1";
/// `fallback` when the variable is unset or empty. Anything else
/// ("true", "off", "2") throws std::invalid_argument naming the variable.
inline bool env_bool(const char* name, bool fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  const std::string v(text);
  if (v == "0" || v == "1") return v == "1";
  throw std::invalid_argument(std::string(name) + " must be 0 or 1, got '" +
                              v + "'");
}

}  // namespace pregel::runtime
