// One home: router + access link + devices + radio neighbourhood.
//
// The household assembles every substrate around the gateway the way a
// real BISmark deployment would: the router replaces the home AP
// (Section 3.1), devices lease LAN addresses over DHCP, wireless clients
// associate per band, and the household's availability timeline gates all
// of it.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bismark/anonymize.h"
#include "bismark/gateway.h"
#include "bismark/services.h"
#include "collect/records.h"
#include "collect/sink.h"
#include "home/availability.h"
#include "home/country.h"
#include "home/device.h"
#include "net/access_link.h"
#include "wireless/neighbor.h"

namespace bismark::home {

/// Construction knobs beyond the country profile.
struct HouseholdOptions {
  /// Force a device count (0 = draw from the country distribution).
  int forced_device_count{0};
  /// Minimum devices (traffic-consent homes need >= 3, Section 6.3).
  int min_devices{1};
  /// Mark this home as a bufferbloat case study (Fig. 16): its uplink can
  /// be overdriven and it hosts a bulk-upload workload.
  bool bufferbloat_case{false};
  /// Which Fig. 16 shape this case reproduces: 0 = constant saturation
  /// (the scientific-data uploader, 16a), 1 = diurnal bursts (16b).
  int bufferbloat_flavor{0};
  gateway::ConsentLevel consent{gateway::ConsentLevel::kBasic};
  /// NAT444 placement (disabled by default). Filled in by the deployment
  /// from its --cgn knobs; when enabled the home's WAN address comes from
  /// the CGN inside space (100.64/10, RFC 6598) instead of public space.
  gateway::CgnPlacement cgn;
};

/// The wireless and unique-device census queries over fixed device
/// schedules and a router-on timeline, each answered by one binary search.
/// Built once per home; the unique-device index is rebuilt only when a
/// query brings a new `since`.
class DeviceCensus {
 public:
  DeviceCensus(const std::vector<Device>& devices, const IntervalSet& router_on);

  /// Devices band_at puts on `band` at `t`, or 0 while the router is off.
  [[nodiscard]] int wireless_connected(wireless::Band band, TimePoint t) const;
  /// Devices present while the router is on at some instant of
  /// [since, until) (on `band`, for the per-band count; wired devices never
  /// count there).
  [[nodiscard]] int unique_seen_total(TimePoint since, TimePoint until) const;
  [[nodiscard]] int unique_seen_band(wireless::Band band, TimePoint since, TimePoint until) const;

 private:
  /// Per band: (instant, connected clients from then on), one entry per
  /// change.
  std::array<std::vector<std::pair<TimePoint, int>>, 2> clients_;
  /// Per device, its presence while the router is on: over all media, and
  /// per band for wireless devices.
  std::vector<IntervalSet> seen_;
  std::array<std::vector<IntervalSet>, 2> seen_band_;

  /// Each device's first instant in seen_ (seen_band_) at or after `since`,
  /// sorted.
  struct FirstSeen {
    TimePoint since;
    std::vector<TimePoint> any;
    std::array<std::vector<TimePoint>, 2> band;
  };
  mutable std::optional<FirstSeen> first_seen_;
  const FirstSeen& first_seen(TimePoint since) const;
};

/// A fully-assembled home network.
class Household final : public gateway::ClientCensus {
 public:
  /// Build deterministically from (country, seed): availability timeline
  /// over `study`, devices with presence over the union of the dataset
  /// windows, neighbourhood, access link and gateway.
  Household(collect::HomeId id, const CountryProfile& country, Interval study,
            const std::vector<Interval>& presence_windows, const gateway::Anonymizer& anonymizer,
            collect::RecordSink* sink, Rng rng, const HouseholdOptions& options = {});

  // --- gateway::ClientCensus ---
  int wired_connected(TimePoint t) const override;
  int wireless_connected(wireless::Band band, TimePoint t) const override;
  int unique_seen_total(TimePoint since, TimePoint until) const override;
  int unique_seen_band(wireless::Band band, TimePoint since, TimePoint until) const override;

  /// Does some wired (resp. wireless) device remain connected through
  /// virtually all of `window`? (Table 5; `slack` tolerates reboots.)
  [[nodiscard]] bool has_always_connected(bool wired, Interval window,
                                          double slack = 0.005) const;

  [[nodiscard]] collect::HomeId id() const { return id_; }
  [[nodiscard]] const CountryProfile& country() const { return *country_; }
  [[nodiscard]] TimeZone tz() const { return tz_; }
  [[nodiscard]] RouterPowerMode power_mode() const { return mode_; }
  [[nodiscard]] const AvailabilityTimeline& timeline() const { return timeline_; }
  [[nodiscard]] const std::vector<Device>& devices() const { return devices_; }
  [[nodiscard]] const wireless::Neighborhood& neighborhood() const { return neighborhood_; }
  [[nodiscard]] net::AccessLink& link() { return *link_; }
  [[nodiscard]] const net::AccessLink& link() const { return *link_; }
  [[nodiscard]] gateway::Gateway& router() { return *gateway_; }
  [[nodiscard]] bool bufferbloat_case() const { return options_.bufferbloat_case; }
  [[nodiscard]] int bufferbloat_flavor() const { return options_.bufferbloat_flavor; }
  [[nodiscard]] gateway::ConsentLevel consent() const { return options_.consent; }

  /// The device carrying the household's primary usage (Fig. 17's
  /// dominant device); index into devices().
  [[nodiscard]] std::size_t primary_device() const { return primary_device_; }

  /// The channel the 2.4 GHz radio is configured for: channel 11 by
  /// default as BISmark ships, but some users reconfigure (Section 3.2.2),
  /// which moves which neighbours their scans can hear.
  [[nodiscard]] int channel_24() const { return channel_24_; }

  /// HomeInfo row for repository registration (flags filled by Deployment).
  [[nodiscard]] collect::HomeInfo make_info() const;

 private:
  collect::HomeId id_;
  const CountryProfile* country_;
  TimeZone tz_;
  RouterPowerMode mode_;
  AvailabilityTimeline timeline_;
  std::vector<Device> devices_;
  std::size_t primary_device_{0};
  int channel_24_{11};
  wireless::Neighborhood neighborhood_;
  std::unique_ptr<net::AccessLink> link_;
  std::unique_ptr<gateway::Gateway> gateway_;
  HouseholdOptions options_;

  // Built on the first census query: the hourly census and the WiFi scans
  // query it thousands of times per home.
  mutable std::optional<DeviceCensus> census_;
  const DeviceCensus& census() const;
};

}  // namespace bismark::home
