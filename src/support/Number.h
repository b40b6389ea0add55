//===- support/Number.h - Checked decimal parsing ---------------*- C++ -*-===//
//
// Part of RegionML, a reproduction of "Garbage-Collection Safety for
// Region-Based Type-Polymorphic Programs" (Elsman, PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser behind every numeric command-line flag. strtoull
/// accepts a leading sign, leading whitespace and any trailing text, so
/// "-1" becomes 2^64-1 and "5ms" becomes 5; this parser accepts neither.
///
//===----------------------------------------------------------------------===//

#ifndef RML_SUPPORT_NUMBER_H
#define RML_SUPPORT_NUMBER_H

#include <cstdint>
#include <optional>
#include <string_view>

namespace rml {

/// Parses \p Text as a decimal unsigned integer no greater than \p Max.
/// The whole string must be digits: no sign, no whitespace, no suffix,
/// and not empty. \returns nullopt on anything else, including a value
/// above \p Max (overflow of 64 bits included).
inline std::optional<uint64_t> parseUnsigned(std::string_view Text,
                                             uint64_t Max = UINT64_MAX) {
  if (Text.empty())
    return std::nullopt;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return std::nullopt;
    uint64_t D = static_cast<uint64_t>(C - '0');
    if (D > Max || V > (Max - D) / 10)
      return std::nullopt;
    V = V * 10 + D;
  }
  return V;
}

} // namespace rml

#endif // RML_SUPPORT_NUMBER_H
