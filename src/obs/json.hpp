// Tiny JSON value formatting for the run manifest and the probe's CSV
// numbers.
//
// The obs layer emits flat records only (no nesting), so all it needs is
// correct escaping of strings and round-trippable number formatting —
// not a JSON library.
#pragma once

#include <cstdio>
#include <cstdint>
#include <cmath>
#include <string>

namespace nashlb::obs {

/// Quotes and escapes `s` per RFC 8259 (quotes, backslash, control chars).
[[nodiscard]] inline std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

/// Shortest round-trippable decimal form; non-finite values (which JSON
/// cannot represent) become null.
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Prefer the shorter %g form when it round-trips exactly.
  char short_buf[32];
  std::snprintf(short_buf, sizeof short_buf, "%g", v);
  double back = 0.0;
  if (std::sscanf(short_buf, "%lf", &back) == 1 && back == v) {
    return short_buf;
  }
  return buf;
}

[[nodiscard]] inline std::string json_number(std::int64_t v) {
  return std::to_string(v);
}

[[nodiscard]] inline std::string json_number(std::uint64_t v) {
  return std::to_string(v);
}

}  // namespace nashlb::obs
