// Strict argument parsing shared by the example applications. Positional
// arguments are positive decimal integers: a malformed, zero or negative
// value, or an argument past the last one an example takes, exits 2 with
// the example's usage line. A shape the library itself rejects (it throws
// std::invalid_argument) exits 2 with the library's message.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace example {

/// One example's usage: its name and its argument synopsis.
struct Usage {
  const char* prog;
  const char* synopsis;

  /// Names the offending argument, prints the usage line and exits 2.
  [[noreturn]] void fail(const char* arg) const {
    std::fprintf(stderr,
                 "%s: invalid argument '%s'\n"
                 "usage: %s %s\n",
                 prog, arg, prog, synopsis);
    std::exit(2);
  }

  /// `arg` as a positive T, or fail().
  template <class T>
  [[nodiscard]] T positive(const char* arg) const {
    T v{};
    const char* end = arg + std::strlen(arg);
    const auto [ptr, ec] = std::from_chars(arg, end, v);
    if (ec != std::errc() || ptr != end || v <= 0) fail(arg);
    return v;
  }

  /// Runs the example's body; a std::invalid_argument from the library
  /// exits 2 with its message instead of aborting.
  template <class Body>
  int run(Body&& body) const {
    try {
      return body();
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s: %s\n", prog, e.what());
      return 2;
    }
  }
};

}  // namespace example
