// JSON string escaping shared by every JSON the simulator writes: the
// BENCH_*.json records (sweep::JsonWriter) and Chrome traces
// (Trace::to_chrome_json).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace sim {

/// Appends `s` to `out` as a quoted JSON string: quotes, backslashes and
/// control bytes are escaped; every other byte is copied as is.
inline void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace sim
