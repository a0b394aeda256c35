// Numeric command-line values, checked the same way by every binary (the
// paper exhibits, seer_serve, seer_inspect and the examples).
//
// A value must parse in full — no leading '+' or blanks, no trailing
// characters, finite for floating point — and lie in the flag's range.
// Anything else is a usage error: one line on stderr naming the flag and
// the accepted range, then exit 2, before the binary writes any output.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

namespace seer::util::cli {

namespace detail {

template <typename T>
bool parse_number(const char* text, T& value) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  return ok;
}

template <typename T>
std::string spell(T v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

[[noreturn]] inline void reject(const std::string& flag, const char* text,
                                const std::string& expected) {
  std::fprintf(stderr, "invalid value '%s' for %s: expected %s\n", text, flag.c_str(),
               expected.c_str());
  std::exit(2);
}

}  // namespace detail

// A value of `flag` in [lo, hi].
template <typename T>
T parse_flag(const std::string& flag, const char* text, T lo, T hi) {
  T value{};
  if (!detail::parse_number(text, value) || value < lo || value > hi) {
    detail::reject(flag, text,
                   "a number from " + detail::spell(lo) + " to " + detail::spell(hi));
  }
  return value;
}

// A value of `flag` in (0, hi].
inline double parse_positive(const std::string& flag, const char* text, double hi) {
  double value = 0.0;
  if (!detail::parse_number(text, value) || !(value > 0.0) || value > hi) {
    detail::reject(flag, text, "a number above 0, up to " + detail::spell(hi));
  }
  return value;
}

}  // namespace seer::util::cli
