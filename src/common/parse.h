// Strict text-to-number parsing shared by every reader of user-supplied
// text: the fault and job-fault spec parsers, the budget-CSV and event-
// trace readers, and the otsched command line.
#pragma once

#include <charconv>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace otsched {

/// All digits, no sign, no blanks, and the value fits `Int`; anything
/// else returns false and leaves `*out` untouched.
template <typename Int>
bool ParseNonNegative(std::string_view token, Int* out) {
  if (token.empty()) return false;
  Int value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    const Int digit = static_cast<Int>(c - '0');
    if (value > (std::numeric_limits<Int>::max() - digit) / 10) return false;
    value = static_cast<Int>(value * 10 + digit);
  }
  *out = value;
  return true;
}

/// A fault rate: the whole token is a decimal number in [0, 0.9].
/// Anything else returns false and leaves `*out` untouched.
inline bool ParseRate(std::string_view token, double* out) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [stop, status] = std::from_chars(token.data(), end, value);
  if (status != std::errc() || stop != end || !(value >= 0.0) ||
      value > 0.9) {
    return false;
  }
  *out = value;
  return true;
}

/// Splits `text` at every `separator`; n separators give n + 1 fields,
/// empty ones included.
inline std::vector<std::string> SplitFields(std::string_view text,
                                            char separator) {
  std::vector<std::string> fields(1);
  for (const char c : text) {
    if (c == separator) {
      fields.emplace_back();
    } else {
      fields.back().push_back(c);
    }
  }
  return fields;
}

}  // namespace otsched
