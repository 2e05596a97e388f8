// Minimal streaming JSON writer for the structured benchmark outputs.
//
// Produces the BENCH_*.json files the sweep executor emits. No DOM, no
// allocation beyond the output string: callers drive begin/end calls and the
// writer handles separators, key/value syntax and string escaping. Invalid
// call sequences are the caller's bug; the writer does not validate nesting.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "sim/json.hpp"

namespace sweep {

class JsonWriter {
 public:
  [[nodiscard]] const std::string& str() const noexcept { return out_; }
  [[nodiscard]] std::string take() && { return std::move(out_); }

  void begin_object() {
    sep();
    out_ += '{';
    first_.push_back(true);
  }
  void end_object() {
    out_ += '}';
    first_.pop_back();
  }
  void begin_array() {
    sep();
    out_ += '[';
    first_.push_back(true);
  }
  void end_array() {
    out_ += ']';
    first_.pop_back();
  }

  void key(std::string_view k) {
    sep();
    sim::append_json_string(out_, k);
    out_ += ':';
    after_key_ = true;
  }

  void value(std::string_view s) {
    sep();
    sim::append_json_string(out_, s);
  }
  void value(const char* s) { value(std::string_view(s)); }
  void value(double d) {
    sep();
    if (!std::isfinite(d)) {
      out_ += "null";  // JSON has no NaN/Inf
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out_ += buf;
  }
  void value(std::int64_t v) {
    sep();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out_ += buf;
  }
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(std::size_t v) { value(static_cast<std::int64_t>(v)); }
  void value(bool b) {
    sep();
    out_ += b ? "true" : "false";
  }

  /// Splices pre-serialized JSON (e.g. cpufree::append_json output) in value
  /// position.
  void raw(std::string_view json) {
    sep();
    out_ += json;
  }

 private:
  void sep() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (first_.empty()) return;  // top-level value
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace sweep
