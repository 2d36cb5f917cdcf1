// Copyright (c) swsample authors. Licensed under the MIT license.
//
// What a spec token is, for every `name[@sub][,key=value]...` grammar
// (SinkSpec, WorkloadSpec, failpoint specs) and the CLI's numeric flags:
// one number syntax, one double rendering, one splitter, and the
// table-driven key=value fields.
//
// Numbers: an unsigned value is one or more ASCII decimal digits — no
// sign, no whitespace, nothing above 2^64-1. A double is a finite
// decimal: digits with an optional leading '-', a point and an exponent
// (no whitespace, '+' sign, hex, inf or nan). A malformed number is
// rejected, never wrapped or clamped.
//
// A grammar lists its fields once, in canonical order, as a template
// `ForEach(visit)` calling `visit("key", &Spec::member)` per field;
// ParseSpecFields and FormatSpecFields both walk that one table. A member
// of a type not handled here gets its ParseSpecValue/FormatSpecValue
// overloads next to the grammar, in namespace swsample.

#ifndef SWSAMPLE_UTIL_SPEC_TEXT_H_
#define SWSAMPLE_UTIL_SPEC_TEXT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace swsample {

/// Strict unsigned decimal: false on an empty token, any non-digit or a
/// value above 2^64-1.
bool ParseUnsigned(std::string_view token, uint64_t* out);

/// Finite decimal double spanning the whole token; false otherwise.
bool ParseFiniteDouble(std::string_view token, double* out);

/// The shortest "%.<p>g" rendering that ParseFiniteDouble reads back as
/// `v` exactly (so 0.5 prints as "0.5", not "0.50000000000000000").
std::string FormatDouble(double v);

/// A spec split at its first ',' and the first '@' of the part before it.
struct SpecParts {
  std::string_view name;  ///< head up to its first '@'
  std::string_view sub;   ///< head after that '@'; empty without one
  bool has_sub = false;   ///< the head holds an '@'
  /// The comma-separated key=value pairs after the head, each split at
  /// its first '='. One trailing comma is allowed.
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
};

/// InvalidArgument `<what> "<text>": <why>`.
Status BadSpec(std::string_view what, std::string_view text,
               std::string_view why);

/// Splits `head[,key=value]...`; a pair without '=' is BadSpec
/// "expected key=value".
Result<SpecParts> SplitSpec(std::string_view what, std::string_view text);

/// Field values: unsigned digits for integers (an int64_t field takes
/// the two's-complement image of the digits, as the uint64 cast does),
/// 0 or 1 for a bool, ParseFiniteDouble for a double.
bool ParseSpecValue(std::string_view text, uint64_t* out);
bool ParseSpecValue(std::string_view text, int64_t* out);
bool ParseSpecValue(std::string_view text, uint32_t* out);
bool ParseSpecValue(std::string_view text, bool* out);
bool ParseSpecValue(std::string_view text, double* out);
std::string FormatSpecValue(uint64_t v);
std::string FormatSpecValue(int64_t v);
std::string FormatSpecValue(uint32_t v);
std::string FormatSpecValue(bool v);
std::string FormatSpecValue(double v);

/// Sets the fields `parts.pairs` name; the last of repeated keys wins. An
/// unknown key (the error lists the table's keys) or a value its field
/// rejects is BadSpec.
template <typename Spec, typename ForEach>
Status ParseSpecFields(std::string_view what, std::string_view text,
                       const SpecParts& parts, ForEach for_each,
                       Spec* spec) {
  for (const auto& [key, value] : parts.pairs) {
    bool known = false;
    bool ok = false;
    for_each([&](const char* name, auto member) {
      if (!known && key == name) {
        known = true;
        ok = ParseSpecValue(value, &(spec->*member));
      }
    });
    if (!known) {
      std::string keys;
      for_each([&](const char* name, auto) {
        keys += keys.empty() ? "" : ", ";
        keys += name;
      });
      return BadSpec(what, text,
                     "unknown key \"" + std::string(key) +
                         "\"; recognized: " + keys);
    }
    if (!ok) {
      return BadSpec(what, text,
                     "invalid value \"" + std::string(value) +
                         "\" for key \"" + std::string(key) + "\"");
    }
  }
  return Status::Ok();
}

/// Appends `,key=value` for every field that differs from a
/// default-constructed Spec, in table order.
template <typename Spec, typename ForEach>
void FormatSpecFields(const Spec& spec, ForEach for_each, std::string* out) {
  const Spec defaults;
  for_each([&](const char* name, auto member) {
    if (spec.*member != defaults.*member) {
      *out += ',';
      *out += name;
      *out += '=';
      *out += FormatSpecValue(spec.*member);
    }
  });
}

}  // namespace swsample

#endif  // SWSAMPLE_UTIL_SPEC_TEXT_H_
