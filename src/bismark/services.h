// The firmware's periodic measurement services (Table 2 cadences):
//   * Uptime        — every 12 h, seconds since last boot
//   * Capacity      — every 12 h, ShaperProbe-style up/down estimates
//   * Devices       — hourly census of wired ports and per-band clients
//   * WiFi          — ~10-minute channel scans, backed off when clients
//                     are associated (Section 3.2.2)
//
// Each service reports only while the router is powered, and the active
// ones only while the home is actually online — the root cause of every
// visibility limitation Section 3.3 discusses.
#pragma once

#include "collect/repository.h"
#include "collect/sink.h"
#include "core/intervals.h"
#include "core/rng.h"
#include "net/access_link.h"
#include "wireless/neighbor.h"

namespace bismark::gateway {

/// What the device-census services can see of the LAN at a given time.
/// Implemented by home::Household (its DeviceCensus); tests supply fakes.
class ClientCensus {
 public:
  virtual ~ClientCensus() = default;
  virtual int wired_connected(TimePoint t) const = 0;
  virtual int wireless_connected(wireless::Band band, TimePoint t) const = 0;
  /// Distinct devices actually seen connected at some point in [since, until).
  virtual int unique_seen_total(TimePoint since, TimePoint until) const = 0;
  /// Distinct devices seen on `band` at some point in [since, until).
  virtual int unique_seen_band(wireless::Band band, TimePoint since, TimePoint until) const = 0;
};

/// Report router uptime every `interval` within `window`; the counter
/// resets at each power-on, letting analysis tell "powered off" from
/// "offline".
void ReportUptime(collect::RecordSink& sink, collect::HomeId home,
                  const IntervalSet& router_on, Interval window,
                  Duration interval = Hours(12));

/// Run the capacity probe every `interval` while the home is online.
void ReportCapacity(collect::RecordSink& sink, collect::HomeId home,
                    const IntervalSet& online, const net::AccessLink& link, Rng rng,
                    Interval window, Duration interval = Hours(12));

/// Hourly device census while the router is powered.
void ReportDeviceCounts(collect::RecordSink& sink, collect::HomeId home,
                        const ClientCensus& census, const IntervalSet& router_on,
                        Interval window, Duration interval = Hours(1));

/// Section 3.2.2: "Each router attempts to scan for clients and access
/// points every 10 minutes; unfortunately, the scanning process can
/// sometimes cause wireless clients to disassociate from the router, so we
/// reduce the scanning frequency if the router has associated clients."
/// The back-off is modelled; the disassociations that motivate it are not.
struct WifiServiceConfig {
  Duration base_interval{Minutes(10).ms};
  /// Multiplier applied when clients are associated (reduced frequency).
  int backoff_factor{3};
  /// Weakest neighbour signal a scan still hears.
  double sensitivity_dbm{-92.0};
  /// Fraction of audible APs actually decoded in one scan pass (fading).
  double detection_prob{0.92};
  /// Channels the two radios are configured for. Defaults match BISmark's
  /// shipping config (11 / 36); Section 3.2.2 notes users may change them.
  int channel_24{wireless::DefaultChannel(wireless::Band::k2_4GHz)};
  int channel_5{wireless::DefaultChannel(wireless::Band::k5GHz)};
};

/// Channel scans on both radios while the router is powered. Scans run at
/// the base cadence when the radio has no clients and back off by
/// `backoff_factor` otherwise.
void ReportWifiScans(collect::RecordSink& sink, collect::HomeId home,
                     const ClientCensus& census, const wireless::Neighborhood& neighborhood,
                     const IntervalSet& router_on, Interval window, Rng rng,
                     const WifiServiceConfig& config = {});

}  // namespace bismark::gateway
