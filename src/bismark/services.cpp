#include "bismark/services.h"

#include <algorithm>

namespace bismark::gateway {

void ReportUptime(collect::RecordSink& sink, collect::HomeId home,
                  const IntervalSet& router_on, Interval window, Duration interval) {
  for (TimePoint t = window.start; t < window.end; t += interval) {
    const Interval* on = router_on.containing(t);
    if (!on) continue;  // powered off: nothing reports
    sink.add_uptime(collect::UptimeRecord{home, t, t - on->start});
  }
}

void ReportCapacity(collect::RecordSink& sink, collect::HomeId home,
                    const IntervalSet& online, const net::AccessLink& link, Rng rng,
                    Interval window, Duration interval) {
  for (TimePoint t = window.start; t < window.end; t += interval) {
    if (!online.contains(t)) continue;  // probe needs a working uplink
    collect::CapacityRecord rec;
    rec.home = home;
    rec.measured = t;
    rec.downstream = link.probe_capacity(net::Direction::kDownstream, rng);
    rec.upstream = link.probe_capacity(net::Direction::kUpstream, rng);
    sink.add_capacity(rec);
  }
}

void ReportDeviceCounts(collect::RecordSink& sink, collect::HomeId home,
                        const ClientCensus& census, const IntervalSet& router_on,
                        Interval window, Duration interval) {
  for (TimePoint t = window.start; t < window.end; t += interval) {
    if (!router_on.contains(t)) continue;
    collect::DeviceCountRecord rec;
    rec.home = home;
    rec.sampled = t;
    rec.wired = census.wired_connected(t);
    rec.wireless_24 = census.wireless_connected(wireless::Band::k2_4GHz, t);
    rec.wireless_5 = census.wireless_connected(wireless::Band::k5GHz, t);
    rec.unique_total = census.unique_seen_total(window.start, t + interval);
    rec.unique_24 =
        census.unique_seen_band(wireless::Band::k2_4GHz, window.start, t + interval);
    rec.unique_5 = census.unique_seen_band(wireless::Band::k5GHz, window.start, t + interval);
    sink.add_device_count(rec);
  }
}

void ReportWifiScans(collect::RecordSink& sink, collect::HomeId home,
                     const ClientCensus& census, const wireless::Neighborhood& neighborhood,
                     const IntervalSet& router_on, Interval window, Rng rng,
                     const WifiServiceConfig& config) {
  const wireless::Band bands[] = {wireless::Band::k2_4GHz, wireless::Band::k5GHz};
  for (wireless::Band band : bands) {
    const int channel =
        band == wireless::Band::k2_4GHz ? config.channel_24 : config.channel_5;
    const auto audible = neighborhood.audible_on(band, channel, config.sensitivity_dbm);
    Rng band_rng = rng.fork(static_cast<std::uint64_t>(band));

    auto on = router_on.intervals().begin();
    TimePoint t = window.start;
    while (t < window.end) {
      while (on != router_on.intervals().end() && on->end <= t) ++on;
      if (on == router_on.intervals().end()) break;
      // Powered off: fast-forward to the next power-on.
      t = std::max(t, on->start);
      if (t >= window.end) break;
      const int clients = census.wireless_connected(band, t);
      // Fading: each audible AP is decoded with detection_prob per scan.
      int seen = 0;
      for (std::size_t i = 0; i < audible.size(); ++i) {
        if (band_rng.bernoulli(config.detection_prob)) ++seen;
      }
      collect::WifiScanRecord rec;
      rec.home = home;
      rec.scanned = t;
      rec.band = band;
      rec.channel = channel;
      rec.visible_aps = seen;
      rec.associated_clients = clients;
      sink.add_wifi_scan(rec);

      const Duration next =
          clients > 0 ? config.base_interval * config.backoff_factor : config.base_interval;
      t += next;
    }
  }
}

}  // namespace bismark::gateway
