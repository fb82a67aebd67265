// A device in a home and its presence schedule.
//
// Presence — when the device is attached to the gateway, by cable or by
// association on one of the two bands — drives Figs 7–10 (device counts
// per medium/band), Fig. 13 (diurnal client counts) and Table 5
// (always-connected devices). Presence is the device's *intent*; the
// device is only actually connected while the router is also powered.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/intervals.h"
#include "core/rng.h"
#include "core/time.h"
#include "net/addr.h"
#include "net/oui.h"
#include "traffic/device_types.h"
#include "wireless/band.h"

namespace bismark::home {

/// Immutable identity and capabilities of a device.
struct DeviceSpec {
  traffic::DeviceType type{traffic::DeviceType::kLaptop};
  net::VendorClass vendor{net::VendorClass::kUnknown};
  net::MacAddress mac;
  bool wired{false};
  bool dual_band{false};   // wireless only
  bool always_on{false};   // Table 5 population: never leaves the network
  /// Appetite multiplier combining type hunger and household role.
  double hunger_scale{1.0};
};

/// One presence interval and, for wireless devices, the band used.
struct PresenceInterval {
  Interval when;
  wireless::Band band{wireless::Band::k2_4GHz};
};

/// Per-device presence schedule over a study window.
///
/// The schedule is stored as a structure of arrays — interval spans in one
/// contiguous array, per-interval bands in a parallel byte array — plus the
/// merged union for point queries. A fleet-scale run holds hundreds of
/// thousands of these schedules, so the former layout (an AoS interval
/// vector *and* three redundant IntervalSets) was the single biggest
/// per-home allocation; the SoA form stores each interval once.
class Device {
 public:
  Device(DeviceSpec spec, std::vector<PresenceInterval> presence);

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }
  /// AoS view of the schedule, materialised on demand (tests/diagnostics;
  /// hot paths read the SoA arrays).
  [[nodiscard]] std::vector<PresenceInterval> presence() const;

  /// Does the device want to be on the network at `t`?
  [[nodiscard]] bool wants_online(TimePoint t) const;
  /// Band in use at `t` (nullopt if wired or not present).
  [[nodiscard]] std::optional<wireless::Band> band_at(TimePoint t) const;
  /// band_at as intervals: disjoint segments sorted by start, each carrying
  /// the band band_at reports throughout it (empty for wired devices).
  [[nodiscard]] std::vector<PresenceInterval> band_segments() const;
  /// Did the device ever use `band` during the window?
  [[nodiscard]] bool ever_on_band(wireless::Band band) const;
  /// Fraction of [lo, hi) the device wants to be online.
  [[nodiscard]] double presence_fraction(TimePoint lo, TimePoint hi) const;

  /// Merged presence across all media, for fast point/coverage queries.
  [[nodiscard]] const IntervalSet& presence_set() const { return all_; }
  /// Presence restricted to one band, derived from the SoA schedule on
  /// demand (empty for wired devices).
  [[nodiscard]] IntervalSet presence_on_band(wireless::Band band) const;

 private:
  DeviceSpec spec_;
  // SoA schedule, sorted by interval start; band_[i] is the
  // wireless::Band of when_[i] (unused when the device is wired).
  std::vector<Interval> when_;
  std::vector<std::uint8_t> band_;
  IntervalSet all_;  // merged union of when_
};

/// Generates devices for households.
class DeviceFactory {
 public:
  /// Draw a device spec for a household slot. `always_on_scale` comes from
  /// the country profile (developing homes power devices off more).
  static DeviceSpec DrawSpec(bool developed, double always_on_scale, Rng& rng);

  /// Generate the presence schedule for a spec over [begin, end), using
  /// the home's local timezone for diurnal structure.
  static std::vector<PresenceInterval> GeneratePresence(const DeviceSpec& spec, TimeZone tz,
                                                        TimePoint begin, TimePoint end,
                                                        Rng& rng);
};

}  // namespace bismark::home
