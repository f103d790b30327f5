// Strict decimal integer parsing for every text value that crosses a
// process boundary: command-line flags, environment knobs, merged
// Prometheus expositions and trace files.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace disco {

/// Parses a whole string as a decimal T, strictly: digits only (a leading
/// '-' only for signed T), no '+', whitespace or trailing garbage, and a
/// value T can hold. strtoull alone would turn "-1" into 2^64-1 and let
/// "4294967296" truncate to 0 in a 32-bit T.
template <typename T>
bool ParseInt(const char* s, T* out) {
  static_assert(std::is_integral<T>::value, "ParseInt needs an integer");
  const bool negative = std::is_signed<T>::value && *s == '-';
  const char* digits = negative ? s + 1 : s;
  if (*digits < '0' || *digits > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long magnitude = std::strtoull(digits, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  // Two's complement: |min| is max + 1.
  const auto max = static_cast<unsigned long long>(
      std::numeric_limits<T>::max());
  if (magnitude > max + (negative ? 1 : 0)) return false;
  *out = negative ? static_cast<T>(-static_cast<long long>(magnitude - 1) - 1)
                  : static_cast<T>(magnitude);
  return true;
}

/// Environment knob `name` as a T of at least `min`, parsed by ParseInt;
/// `def` when unset, malformed, out of T's range or below `min` (so "-1"
/// never wraps to a huge unsigned budget and "99999999999" never reaches a
/// 32-bit knob).
template <typename T>
T EnvIntOr(const char* name, T def, T min = 0) {
  const char* v = std::getenv(name);
  T parsed{};
  return v != nullptr && ParseInt(v, &parsed) && parsed >= min ? parsed : def;
}

}  // namespace disco
