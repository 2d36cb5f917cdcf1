// Copyright (c) swsample authors. Licensed under the MIT license.

#include "util/spec_text.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace swsample {

bool ParseUnsigned(std::string_view token, uint64_t* out) {
  if (token.empty()) return false;
  uint64_t v = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (std::numeric_limits<uint64_t>::max() - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

bool ParseFiniteDouble(std::string_view token, double* out) {
  // Decimal digits, one sign, point and exponent only: this rules out
  // what strtod also takes (whitespace, '+' first, hex, inf, nan).
  if (token.empty() || token.front() == '+' ||
      token.find_first_not_of("0123456789+-.eE") != std::string_view::npos) {
    return false;
  }
  const std::string buf(token);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

std::string FormatDouble(double v) {
  char buf[32];
  double back = 0.0;
  for (int prec = 1; prec < 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (ParseFiniteDouble(buf, &back) && back == v) return buf;
  }
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Status BadSpec(std::string_view what, std::string_view text,
               std::string_view why) {
  return Status::InvalidArgument(std::string(what) + " \"" +
                                 std::string(text) + "\": " +
                                 std::string(why));
}

Result<SpecParts> SplitSpec(std::string_view what, std::string_view text) {
  SpecParts parts;
  const size_t comma = std::min(text.find(','), text.size());
  const std::string_view head = text.substr(0, comma);
  const size_t at = head.find('@');
  parts.has_sub = at != std::string_view::npos;
  parts.name = head.substr(0, at);
  if (parts.has_sub) parts.sub = head.substr(at + 1);
  std::string_view rest = text.substr(std::min(comma + 1, text.size()));
  while (!rest.empty()) {
    const size_t next = std::min(rest.find(','), rest.size());
    const std::string_view pair = rest.substr(0, next);
    rest = rest.substr(std::min(next + 1, rest.size()));
    const size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return BadSpec(what, text,
                     "expected key=value, got \"" + std::string(pair) + "\"");
    }
    parts.pairs.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
  }
  return parts;
}

bool ParseSpecValue(std::string_view text, uint64_t* out) {
  return ParseUnsigned(text, out);
}

bool ParseSpecValue(std::string_view text, int64_t* out) {
  uint64_t v = 0;
  if (!ParseUnsigned(text, &v)) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseSpecValue(std::string_view text, uint32_t* out) {
  uint64_t v = 0;
  if (!ParseUnsigned(text, &v) || v > std::numeric_limits<uint32_t>::max()) {
    return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

bool ParseSpecValue(std::string_view text, bool* out) {
  uint64_t v = 0;
  if (!ParseUnsigned(text, &v) || v > 1) return false;
  *out = v != 0;
  return true;
}

bool ParseSpecValue(std::string_view text, double* out) {
  return ParseFiniteDouble(text, out);
}

std::string FormatSpecValue(uint64_t v) { return std::to_string(v); }

std::string FormatSpecValue(int64_t v) {
  return std::to_string(static_cast<uint64_t>(v));
}

std::string FormatSpecValue(uint32_t v) { return std::to_string(v); }

std::string FormatSpecValue(bool v) { return v ? "1" : "0"; }

std::string FormatSpecValue(double v) { return FormatDouble(v); }

}  // namespace swsample
