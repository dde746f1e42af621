#pragma once
// Strict parsing of the numeric PGCH_* environment knobs. A typo must fail
// loudly: atoi("abc") is 0, which silently turns a misspelled thread count
// or port into a default the user never asked for.

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace pregel::runtime {

/// Integer value of environment variable `name`, clamped to [lo, hi];
/// `fallback` (returned as is) when the variable is unset or empty.
/// Non-numeric text, trailing junk or a value beyond the 64-bit range
/// throws std::invalid_argument naming the variable.
inline int env_int(const char* name, int fallback, int lo = INT_MIN,
                   int hi = INT_MAX) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(std::string(name) +
                                " must be an integer, got '" + text + "'");
  }
  return static_cast<int>(std::clamp<long long>(v, lo, hi));
}

}  // namespace pregel::runtime
