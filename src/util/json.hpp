// JSON string escaping, shared by the BENCH_*.json writer and dmm_cli's
// --json output, so a string field (an instance label, a file path) never
// breaks the object it sits in.
#pragma once

#include <cstdio>
#include <string>

namespace dmm::util {

/// `text` escaped for use between JSON double quotes: quote, backslash and
/// every control character.
inline std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace dmm::util
