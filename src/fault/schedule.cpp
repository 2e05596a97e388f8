#include "fault/schedule.hpp"

#include "sim/rng.hpp"

namespace fault {

namespace {

[[nodiscard]] constexpr std::uint32_t class_of(Site s) noexcept {
  switch (s) {
    case Site::kLinkWindow: return kClassLink;
    case Site::kStallWindow: return kClassStall;
    case Site::kSignalLost: return kClassSignalLost;
    case Site::kSignalDelay: return kClassSignalDelay;
    case Site::kPutDrop: return kClassPutDrop;
    case Site::kPutDup: return kClassPutDup;
  }
  return 0;
}

}  // namespace

const char* site_name(Site s) noexcept {
  switch (s) {
    case Site::kLinkWindow: return "link-degrade";
    case Site::kStallWindow: return "device-stall";
    case Site::kSignalLost: return "signal-lost";
    case Site::kSignalDelay: return "signal-delay";
    case Site::kPutDrop: return "put-drop";
    case Site::kPutDup: return "put-dup";
  }
  return "?";
}

double Schedule::uniform(Site site, std::uint64_t id, std::uint64_t n) const {
  // Stream key (seed ^ domain salt, site, id, n) — byte-identical to the
  // pre-extraction inline chain (sim::stream_uniform starts with
  // mix64(seed), matching the old mix64(cfg_.seed ^ salt) first round).
  return sim::stream_uniform(cfg_.seed ^ 0xc0f5ee0ddeadull,
                             static_cast<std::uint64_t>(site), id, n);
}

bool Schedule::roll(Site site, std::uint64_t id) {
  if (!has_class(class_of(site))) return false;
  const auto key = std::make_pair(static_cast<std::uint32_t>(site), id);
  const std::uint64_t n = counters_[key]++;
  if (uniform(site, id, n) >= cfg_.rate) return false;
  ++stats_.injected;
  return true;
}

double Schedule::link_scale(std::uint64_t link_id, sim::Nanos now) const {
  if (!has_class(kClassLink) && !has_class(kClassFlap)) return 1.0;
  const std::uint64_t w = window_of(now);
  if (uniform(Site::kLinkWindow, link_id, w) >= cfg_.rate) return 1.0;
  // A faulty window is a flap (deep outage) or a plain degradation; the
  // sub-draw reuses the same stream at a shifted counter so both decisions
  // come from (seed, site, id, window) alone.
  const bool flap = has_class(kClassFlap) &&
                    uniform(Site::kLinkWindow, link_id, ~w) < 0.5;
  if (flap) return cfg_.flap_scale;
  return has_class(kClassLink) ? cfg_.link_degrade_scale : 1.0;
}

double Schedule::stall_scale_at(int device, sim::Nanos now) const {
  if (!has_class(kClassStall)) return 1.0;
  const std::uint64_t w = window_of(now);
  const auto id = static_cast<std::uint64_t>(device);
  if (uniform(Site::kStallWindow, id, w) >= cfg_.rate) return 1.0;
  return cfg_.stall_scale;
}

bool Schedule::first_sight(Site site, std::uint64_t id, sim::Nanos now) {
  const auto key = std::make_pair(static_cast<std::uint32_t>(site), id);
  const std::uint64_t w = window_of(now);
  auto it = seen_.find(key);
  if (it != seen_.end() && it->second == w) return false;
  seen_[key] = w;
  ++stats_.injected;
  return true;
}

bool Schedule::device_dead_at(int device, std::int64_t iter) const {
  if ((cfg_.classes & kClassDeviceDead) == 0) return false;
  for (const HardFault& h : cfg_.hard) {
    if (h.device == device && iter >= h.at) return true;
  }
  return false;
}

std::int64_t Schedule::device_kill_iteration(int device) const {
  if ((cfg_.classes & kClassDeviceDead) == 0) return -1;
  for (const HardFault& h : cfg_.hard) {
    if (h.device == device) return h.at;
  }
  return -1;
}

bool Schedule::note_device_iteration(int device, std::int64_t iter,
                                     sim::Nanos now) {
  if (!device_dead_at(device, iter)) return false;
  if (dead_devices_.count(device) != 0) return false;
  dead_devices_.emplace(device, now);
  ++stats_.devices_dead;
  ++stats_.injected;
  return true;
}

}  // namespace fault
