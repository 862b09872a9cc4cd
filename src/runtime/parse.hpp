// parse.hpp — strict numeric parsing for registry/CLI spec strings.
//
// Every spec parser in the tree ("lookahead:<d>", "zipf:<s>",
// "burst:<size>:<gap>", "bounded:<pairs>", ...) needs the same contract: a
// token is a number exactly — no signs on unsigned, no trailing garbage, no
// overflow, nothing non-finite — or the whole spec is rejected loudly. One
// from_chars wrapper serves them all so the behaviour (and the error text)
// cannot drift.
#pragma once

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace nav {

/// Splits "name:arg1:arg2" into its ':'-separated tokens (empty tokens
/// preserved, so "trace:" yields {"trace", ""} and parses can reject it).
[[nodiscard]] inline std::vector<std::string> split_spec(
    const std::string& spec) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    if (colon == std::string::npos) {
      tokens.push_back(spec.substr(start));
      return tokens;
    }
    tokens.push_back(spec.substr(start, colon - start));
    start = colon + 1;
  }
}

/// Parses `token` as a T (integral or floating), rejecting empty tokens,
/// signs on unsigned types, trailing garbage, overflow, and (for floating T)
/// "nan"/"inf", which from_chars accepts but no spec field can use: a NaN
/// slips past every range check. `spec` is the enclosing spec string, named
/// in the std::invalid_argument on failure.
template <typename T>
[[nodiscard]] T parse_spec_number(const std::string& token,
                                  const std::string& spec) {
  T value{};
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  bool finite = true;
  if constexpr (std::is_floating_point_v<T>) finite = std::isfinite(value);
  if (token.empty() || ec != std::errc() ||
      end != token.data() + token.size() || !finite) {
    throw std::invalid_argument("bad number '" + token + "' in spec: " +
                                spec);
  }
  return value;
}

}  // namespace nav
