// Reference implementations of util::json's number codec as it was before
// the to_chars/from_chars fast paths: the shortest-double probe loop and
// the strtod number read. Tests assert the shipping codec matches them.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace vdap::oracle {

/// Shortest `%.<P>g` (P = 1..16) that strtod reads back as `d`, else
/// `%.17g`; NaN/Inf → "null". Up to 16 snprintf+strtod probes per call.
inline std::string format_double(double d) {
  if (std::isnan(d) || std::isinf(d)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, d);
    if (std::strtod(probe, nullptr) == d) return probe;
  }
  return buf;
}

/// The value json::parse gave a number token: an int64 when the token has
/// no '.', 'e', 'E', '+' or '-' past its sign and fits, else strtod.
inline json::Value parse_number(std::string_view tok) {
  const std::string_view body = tok.substr(!tok.empty() && tok[0] == '-');
  if (body.find_first_of(".eE+-") == std::string_view::npos) {
    std::int64_t i = 0;
    auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), i);
    if (ec == std::errc() && p == tok.data() + tok.size()) return json::Value(i);
  }
  return json::Value(std::strtod(std::string(tok).c_str(), nullptr));
}

}  // namespace vdap::oracle
