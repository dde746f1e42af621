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

/// Integer value of `text`, the setting of `name` (an environment
/// variable, flag, field or argument). Non-numeric or empty text,
/// trailing junk or a value beyond the 64-bit range throws
/// std::invalid_argument naming `name`.
inline long long parse_int64(const std::string& name, const char* text) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(name + " must be an integer, got '" + text +
                                "'");
  }
  return v;
}

/// parse_int64, clamped to [lo, INT_MAX].
inline int parse_int(const std::string& name, const char* text,
                     int lo = INT_MIN) {
  return static_cast<int>(
      std::clamp<long long>(parse_int64(name, text), lo, INT_MAX));
}

/// Integer value of environment variable `name` (parse_int); `fallback`
/// (returned as is) when the variable is unset or empty.
inline int env_int(const char* name, int fallback, int lo = INT_MIN) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  return parse_int(name, text, lo);
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
