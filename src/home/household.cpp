#include "home/household.h"

#include <algorithm>
#include <cmath>

namespace bismark::home {

namespace {
int DrawDeviceCount(const CountryProfile& country, Rng& rng) {
  // Lognormal around the country mean: developed homes centre near 6–7
  // unique devices (median >= 5, Fig. 7), developing near 4.
  const double median = country.developed ? country.mean_devices * 0.85
                                          : country.mean_devices * 0.88;
  const double v = rng.lognormal(std::log(std::max(1.5, median)), 0.45);
  return std::max(1, static_cast<int>(std::lround(v)));
}

net::AccessLinkConfig DrawLink(const CountryProfile& country, bool bufferbloat_case, Rng& rng) {
  net::AccessLinkConfig cfg;
  // Log-uniform downstream capacity within the country band.
  const double lo = std::log(country.down_mbps_lo);
  const double hi = std::log(country.down_mbps_hi);
  const double down = std::exp(rng.uniform(lo, hi));
  const double up = down * rng.uniform(country.up_fraction_lo, country.up_fraction_hi);
  cfg.down_capacity = Mbps(down);
  cfg.up_capacity = Mbps(std::max(0.25, up));
  cfg.allow_uplink_overdrive = bufferbloat_case;
  if (bufferbloat_case) {
    // The case-study homes pair a slow uplink with a deep modem buffer.
    cfg.up_capacity = Mbps(rng.uniform(0.9, 2.2));
    cfg.uplink_buffer = KB(512);
  }
  return cfg;
}

std::size_t BandIndex(wireless::Band band) { return static_cast<std::size_t>(band); }

/// The first instant of `set` at or after `from`, if any.
std::optional<TimePoint> FirstCovered(const IntervalSet& set, TimePoint from) {
  const auto& ivs = set.intervals();
  const auto it = std::lower_bound(ivs.begin(), ivs.end(), from,
                                   [](const Interval& iv, TimePoint t) { return iv.end <= t; });
  if (it == ivs.end()) return std::nullopt;
  return std::max(it->start, from);
}

int CountBefore(const std::vector<TimePoint>& sorted, TimePoint until) {
  return static_cast<int>(std::lower_bound(sorted.begin(), sorted.end(), until) - sorted.begin());
}
}  // namespace

Household::Household(collect::HomeId id, const CountryProfile& country, Interval study,
                     const std::vector<Interval>& presence_windows,
                     const gateway::Anonymizer& anonymizer, collect::RecordSink* sink,
                     Rng rng, const HouseholdOptions& options)
    : id_(id), country_(&country), tz_{country.utc_offset}, options_(options) {
  Rng avail_rng = rng.fork("availability");
  mode_ = options.bufferbloat_case ? RouterPowerMode::kAlwaysOn
                                   : AvailabilityModel::DrawMode(country, avail_rng);
  timeline_ =
      AvailabilityModel::Generate(country, mode_, tz_, study.start, study.end, avail_rng);

  // Devices.
  Rng dev_rng = rng.fork("devices");
  int count = options.forced_device_count > 0 ? options.forced_device_count
                                              : DrawDeviceCount(country, dev_rng);
  count = std::max(count, options.min_devices);
  for (int i = 0; i < count; ++i) {
    Rng d_rng = dev_rng.fork(static_cast<std::uint64_t>(i));
    DeviceSpec spec = DeviceFactory::DrawSpec(country.developed, country.always_on_device_scale,
                                              d_rng);
    std::vector<PresenceInterval> presence;
    for (const auto& window : presence_windows) {
      auto part = DeviceFactory::GeneratePresence(spec, tz_, window.start, window.end, d_rng);
      presence.insert(presence.end(), part.begin(), part.end());
    }
    devices_.emplace_back(spec, std::move(presence));
  }

  // The bufferbloat case homes host a dedicated always-on uploader
  // (the Fig. 16a "scientific data" machine).
  if (options.bufferbloat_case) {
    DeviceSpec spec;
    spec.type = traffic::DeviceType::kNas;
    spec.vendor = net::VendorClass::kIntel;
    spec.mac = traffic::MintMac(spec.vendor, dev_rng);
    spec.wired = true;
    spec.always_on = true;
    spec.hunger_scale = 3.0;
    std::vector<PresenceInterval> presence;
    for (const auto& window : presence_windows) {
      presence.push_back(PresenceInterval{Interval{window.start, window.end},
                                          wireless::Band::k2_4GHz});
    }
    devices_.emplace_back(spec, std::move(presence));
  }

  // Pick the primary (dominant) device: the hungriest, weighted by how
  // much it is around. Its appetite is boosted so one device ends up
  // carrying ~60 % of home volume (Fig. 17).
  double best = -1.0;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const auto& d = devices_[i];
    const double presence_w = 0.25 + d.presence_fraction(study.start, study.end);
    const double score = d.spec().hunger_scale * presence_w;
    if (score > best) {
      best = score;
      primary_device_ = i;
    }
  }

  // Most users never touch the shipped channel 11; a minority move to one
  // of the other non-overlapping channels.
  Rng chan_rng = rng.fork("channel");
  if (chan_rng.bernoulli(0.12)) {
    channel_24_ = chan_rng.bernoulli(0.5) ? 1 : 6;
  }

  neighborhood_ =
      wireless::Neighborhood::Generate(country.neighborhood, rng.fork("neighborhood"));
  link_ = std::make_unique<net::AccessLink>(
      DrawLink(country, options.bufferbloat_case, dev_rng));

  gateway::GatewayConfig gw;
  gw.home = id_;
  gw.consent = options.consent;
  gw.cgn = options.cgn;
  if (options.cgn.enabled) {
    // Behind a carrier-grade NAT the home's WAN address is ISP-internal
    // shared space (RFC 6598, 100.64/10) — the CGN, not the home, owns the
    // public address. Still distinct per home so NAT tables stay per-home.
    gw.nat.wan_address = net::Ipv4Address(
        100, static_cast<std::uint8_t>(64 + (id_.value / 62500)),
        static_cast<std::uint8_t>((id_.value / 250) % 250),
        static_cast<std::uint8_t>(1 + (id_.value % 250)));
  } else {
    // Give each home a distinct WAN address so NAT tables are per-home.
    gw.nat.wan_address = net::Ipv4Address(
        203, 0, static_cast<std::uint8_t>(113 + (id_.value / 250)),
        static_cast<std::uint8_t>(1 + (id_.value % 250)));
  }
  gateway_ = std::make_unique<gateway::Gateway>(gw, *link_, anonymizer, sink);
}

DeviceCensus::DeviceCensus(const std::vector<Device>& devices, const IntervalSet& router_on) {
  // One sweep per band over the edges of the devices' band_at segments and
  // of the router-on intervals. Each device's segments are disjoint, so the
  // live segment count is the number of devices on the band.
  struct Edge {
    TimePoint at;
    int clients;
    int on;
  };
  std::array<std::vector<Edge>, 2> edges;
  for (const auto& d : devices) {
    for (const auto& seg : d.band_segments()) {
      auto& band_edges = edges[BandIndex(seg.band)];
      band_edges.push_back(Edge{seg.when.start, 1, 0});
      band_edges.push_back(Edge{seg.when.end, -1, 0});
    }
  }
  for (std::size_t b = 0; b < edges.size(); ++b) {
    auto& band_edges = edges[b];
    for (const auto& iv : router_on.intervals()) {
      band_edges.push_back(Edge{iv.start, 0, 1});
      band_edges.push_back(Edge{iv.end, 0, -1});
    }
    std::sort(band_edges.begin(), band_edges.end(),
              [](const Edge& x, const Edge& y) { return x.at < y.at; });
    int clients = 0;
    int on = 0;
    for (std::size_t k = 0; k < band_edges.size();) {
      const TimePoint at = band_edges[k].at;
      for (; k < band_edges.size() && band_edges[k].at == at; ++k) {
        clients += band_edges[k].clients;
        on += band_edges[k].on;
      }
      const int count = on > 0 ? clients : 0;
      const int before = clients_[b].empty() ? 0 : clients_[b].back().second;
      if (count != before) clients_[b].emplace_back(at, count);
    }
  }

  for (const auto& d : devices) {
    seen_.push_back(d.presence_set().intersect(router_on));
    if (d.spec().wired) continue;
    for (wireless::Band band : {wireless::Band::k2_4GHz, wireless::Band::k5GHz}) {
      seen_band_[BandIndex(band)].push_back(d.presence_on_band(band).intersect(router_on));
    }
  }
}

int DeviceCensus::wireless_connected(wireless::Band band, TimePoint t) const {
  const auto& steps = clients_[BandIndex(band)];
  const auto it = std::upper_bound(
      steps.begin(), steps.end(), t,
      [](TimePoint v, const std::pair<TimePoint, int>& step) { return v < step.first; });
  return it == steps.begin() ? 0 : std::prev(it)->second;
}

const DeviceCensus::FirstSeen& DeviceCensus::first_seen(TimePoint since) const {
  if (first_seen_ && first_seen_->since == since) return *first_seen_;
  FirstSeen first{since, {}, {}};
  auto collect = [since](const std::vector<IntervalSet>& sets, std::vector<TimePoint>& out) {
    for (const auto& set : sets) {
      if (const auto t = FirstCovered(set, since)) out.push_back(*t);
    }
    std::sort(out.begin(), out.end());
  };
  collect(seen_, first.any);
  for (std::size_t b = 0; b < seen_band_.size(); ++b) collect(seen_band_[b], first.band[b]);
  first_seen_ = std::move(first);
  return *first_seen_;
}

int DeviceCensus::unique_seen_total(TimePoint since, TimePoint until) const {
  return CountBefore(first_seen(since).any, until);
}

int DeviceCensus::unique_seen_band(wireless::Band band, TimePoint since,
                                   TimePoint until) const {
  return CountBefore(first_seen(since).band[BandIndex(band)], until);
}

int Household::wired_connected(TimePoint t) const {
  if (!timeline_.router_on_at(t)) return 0;
  int n = 0;
  for (const auto& d : devices_) {
    if (d.spec().wired && d.wants_online(t)) ++n;
  }
  // The WNDR3800 has four ports; surplus devices simply cannot attach.
  return std::min(n, 4);
}

const DeviceCensus& Household::census() const {
  if (!census_) census_.emplace(devices_, timeline_.router_on);
  return *census_;
}

int Household::wireless_connected(wireless::Band band, TimePoint t) const {
  return census().wireless_connected(band, t);
}

int Household::unique_seen_total(TimePoint since, TimePoint until) const {
  return census().unique_seen_total(since, until);
}

int Household::unique_seen_band(wireless::Band band, TimePoint since, TimePoint until) const {
  return census().unique_seen_band(band, since, until);
}

bool Household::has_always_connected(bool wired, Interval window, double slack) const {
  for (const auto& d : devices_) {
    if (d.spec().wired != wired) continue;
    const IntervalSet seen = d.presence_set().intersect(timeline_.router_on);
    if (seen.coverage_fraction(window.start, window.end) >= 1.0 - slack) return true;
  }
  return false;
}

collect::HomeInfo Household::make_info() const {
  collect::HomeInfo info;
  info.id = id_;
  info.country_code = country_->code;
  info.developed = country_->developed;
  info.utc_offset = country_->utc_offset;
  info.consented_traffic = options_.consent == gateway::ConsentLevel::kFullTraffic;
  info.true_down_mbps = link_->config().down_capacity.mbps();
  info.true_up_mbps = link_->config().up_capacity.mbps();
  info.power_mode = static_cast<int>(mode_);
  return info;
}

}  // namespace bismark::home
