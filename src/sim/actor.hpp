// Actor identity: one sequential timeline of a simulation (a host thread,
// a stream, a kernel block group or a directed link). The checker keys its
// happens-before order on actors, and the engine's hang report names the
// actor behind each open wait. See sim/observe.hpp for the conventions.
#pragma once

#include <cstdint>
#include <string>

namespace sim {

/// One sequential timeline participating in the happens-before order.
struct Actor {
  enum class Kind : std::uint8_t {
    kNone,         // "no actor": disables publication for this site
    kHost,         // the host thread driving device `a`
    kStream,       // stream `b` of device `a`
    kKernelGroup,  // block group `c` of the kernel on stream `b`, device `a`
    kWire,         // the directed link `a` -> `b`
  };

  Kind kind = Kind::kNone;
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::int32_t c = -1;

  [[nodiscard]] static constexpr Actor host(int dev) {
    return Actor{Kind::kHost, dev, -1, -1};
  }
  [[nodiscard]] static constexpr Actor stream(int dev, int lane) {
    return Actor{Kind::kStream, dev, lane, -1};
  }
  [[nodiscard]] static constexpr Actor group(int dev, int lane, int g) {
    return Actor{Kind::kKernelGroup, dev, lane, g};
  }
  [[nodiscard]] static constexpr Actor wire(int src, int dst) {
    return Actor{Kind::kWire, src, dst, -1};
  }

  [[nodiscard]] constexpr bool valid() const noexcept {
    return kind != Kind::kNone;
  }

  friend constexpr bool operator==(const Actor&, const Actor&) = default;
  friend constexpr auto operator<=>(const Actor&, const Actor&) = default;

  /// Human-readable identity for reports: "host0", "pe1/s0", "pe1/k0.g2",
  /// "wire0->1".
  [[nodiscard]] std::string str() const {
    switch (kind) {
      case Kind::kHost:
        return "host" + std::to_string(a);
      case Kind::kStream:
        return "pe" + std::to_string(a) + "/s" + std::to_string(b);
      case Kind::kKernelGroup:
        return "pe" + std::to_string(a) + "/k" + std::to_string(b) + ".g" +
               std::to_string(c);
      case Kind::kWire:
        return "wire" + std::to_string(a) + "->" + std::to_string(b);
      case Kind::kNone:
        break;
    }
    return "<none>";
  }
};

}  // namespace sim
