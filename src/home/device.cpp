#include "home/device.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace bismark::home {

using traffic::DeviceType;
using wireless::Band;

Device::Device(DeviceSpec spec, std::vector<PresenceInterval> presence) : spec_(spec) {
  std::sort(presence.begin(), presence.end(),
            [](const PresenceInterval& a, const PresenceInterval& b) {
              return a.when.start < b.when.start;
            });
  when_.reserve(presence.size());
  band_.reserve(presence.size());
  for (const auto& p : presence) {
    when_.push_back(p.when);
    band_.push_back(static_cast<std::uint8_t>(p.band));
    all_.add(p.when);
  }
}

std::vector<PresenceInterval> Device::presence() const {
  std::vector<PresenceInterval> out;
  out.reserve(when_.size());
  for (std::size_t i = 0; i < when_.size(); ++i) {
    out.push_back(PresenceInterval{when_[i], static_cast<Band>(band_[i])});
  }
  return out;
}

bool Device::wants_online(TimePoint t) const { return all_.contains(t); }

std::optional<Band> Device::band_at(TimePoint t) const {
  if (spec_.wired) return std::nullopt;
  // First containing interval wins (earlier-start bands take precedence
  // during overlap), exactly as the AoS scan did.
  for (std::size_t i = 0; i < when_.size(); ++i) {
    if (when_[i].contains(t)) return static_cast<Band>(band_[i]);
    if (when_[i].start > t) break;
  }
  return std::nullopt;
}

std::vector<PresenceInterval> Device::band_segments() const {
  std::vector<PresenceInterval> out;
  if (spec_.wired) return out;
  // Every earlier interval starts no later than when_[i], so the part of
  // when_[i] that no earlier one covers is what lies past their furthest end.
  TimePoint reach{std::numeric_limits<std::int64_t>::min()};
  for (std::size_t i = 0; i < when_.size(); ++i) {
    const TimePoint start = std::max(when_[i].start, reach);
    if (start < when_[i].end) {
      out.push_back(PresenceInterval{Interval{start, when_[i].end}, static_cast<Band>(band_[i])});
    }
    reach = std::max(reach, when_[i].end);
  }
  return out;
}

bool Device::ever_on_band(Band band) const {
  if (spec_.wired) return false;
  const auto b = static_cast<std::uint8_t>(band);
  return std::any_of(band_.begin(), band_.end(), [b](std::uint8_t x) { return x == b; });
}

double Device::presence_fraction(TimePoint lo, TimePoint hi) const {
  if (hi <= lo) return 0.0;
  Duration covered{0};
  for (const auto& w : when_) {
    const TimePoint s = std::max(w.start, lo);
    const TimePoint e = std::min(w.end, hi);
    if (e > s) covered += e - s;
  }
  return static_cast<double>(covered.ms) / static_cast<double>((hi - lo).ms);
}

IntervalSet Device::presence_on_band(Band band) const {
  IntervalSet out;
  if (spec_.wired) return out;
  const auto b = static_cast<std::uint8_t>(band);
  for (std::size_t i = 0; i < when_.size(); ++i) {
    if (band_[i] == b) out.add(when_[i]);
  }
  return out;
}

DeviceSpec DeviceFactory::DrawSpec(bool developed, double always_on_scale, Rng& rng) {
  DeviceSpec spec;
  spec.type = traffic::DrawDeviceType(developed, rng);
  const auto& traits = traffic::TraitsOf(spec.type);
  spec.vendor = traffic::DrawVendorClass(spec.type, rng);
  spec.mac = traffic::MintMac(spec.vendor, rng);
  spec.wired = rng.bernoulli(traits.wired_prob);
  spec.dual_band = !spec.wired && rng.bernoulli(traits.dual_band_prob);
  // Wireless devices rarely stay associated around the clock even when the
  // hardware could (roaming, sleep states) — Table 5's wired/wireless gap.
  const double medium_scale = spec.wired ? 1.0 : 0.35;
  spec.always_on = rng.bernoulli(traits.always_on_prob * always_on_scale * medium_scale);
  spec.hunger_scale = traits.hunger;
  return spec;
}

namespace {
Band DrawBand(const DeviceSpec& spec, Rng& rng) {
  if (!spec.dual_band) return Band::k2_4GHz;
  // Dual-band devices prefer the cleaner 5 GHz but fall back to 2.4
  // (range, AP steering) a third of the time.
  return rng.bernoulli(0.68) ? Band::k5GHz : Band::k2_4GHz;
}
}  // namespace

std::vector<PresenceInterval> DeviceFactory::GeneratePresence(const DeviceSpec& spec,
                                                              TimeZone tz, TimePoint begin,
                                                              TimePoint end, Rng& rng) {
  std::vector<PresenceInterval> presence;

  if (spec.always_on) {
    presence.push_back(PresenceInterval{Interval{begin, end}, DrawBand(spec, rng)});
    return presence;
  }

  const bool is_phone_like =
      spec.type == DeviceType::kSmartPhone || spec.type == DeviceType::kTablet;
  // Phones usually stay connected overnight (charging on the nightstand) —
  // the reason Fig. 13's night dip is shallower than the afternoon one.
  const double p_overnight = is_phone_like ? 0.75 : 0.25;
  const double p_evening = 0.85;
  const double p_morning = is_phone_like ? 0.45 : 0.30;
  const double p_weekday_daytime = 0.30;
  const double p_weekend_daytime = 0.70;
  // Some devices are "homebodies": a couch tablet, an idle smart TV — they
  // sit associated most of the day without being always-on. They set the
  // ~1.4-device floor of Fig. 13's weekday curve.
  const bool homebody = rng.bernoulli(0.22);

  auto add = [&](TimePoint s, TimePoint e) {
    if (e <= s) return;
    s = std::max(s, begin);
    e = std::min(e, end);
    if (e <= s) return;
    presence.push_back(PresenceInterval{Interval{s, e}, DrawBand(spec, rng)});
  };

  TimePoint day = tz.local_midnight(begin);
  while (day < end) {
    const Weekday wd = tz.local_weekday(day + Hours(12));
    // Homebody devices stay on the network through the day.
    if (homebody && rng.bernoulli(0.9)) {
      const double s = std::clamp(rng.normal(8.5, 1.0), 6.5, 11.0);
      const double len = std::clamp(rng.normal(14.5, 2.0), 9.0, 18.0);
      add(day + Hours(s), day + Hours(s + len));
    }
    // Morning window.
    if (rng.bernoulli(p_morning)) {
      const double s = std::clamp(rng.normal(7.3, 0.7), 5.5, 10.0);
      const double len = std::clamp(rng.lognormal(std::log(0.8), 0.5), 0.2, 3.0);
      add(day + Hours(s), day + Hours(s + len));
    }
    // Daytime window.
    const double p_day = IsWeekend(wd) ? p_weekend_daytime : p_weekday_daytime;
    if (rng.bernoulli(p_day)) {
      const double s = std::clamp(rng.normal(12.5, 2.0), 9.0, 17.0);
      const double len = std::clamp(rng.lognormal(std::log(2.2), 0.6), 0.3, 8.0);
      add(day + Hours(s), day + Hours(s + len));
    }
    // Evening window — the Fig. 13 peak.
    if (rng.bernoulli(p_evening)) {
      const double s = std::clamp(rng.normal(18.3, 1.3), 16.0, 22.0);
      const double len = std::clamp(rng.lognormal(std::log(2.8), 0.5), 0.5, 7.0);
      add(day + Hours(s), day + Hours(s + len));
    }
    // Overnight (spills into the next day).
    if (rng.bernoulli(p_overnight)) {
      const double s = std::clamp(rng.normal(22.5, 0.8), 21.0, 25.0);
      const double len = std::clamp(rng.normal(8.5, 1.2), 5.0, 11.0);
      add(day + Hours(s), day + Hours(s + len));
    }
    day += Days(1);
  }

  // Merge overlapping intervals with the same band to keep the schedule
  // tidy; overlapping different-band intervals are left as-is (the earlier
  // interval's band wins during overlap via band_at's first-match rule).
  std::sort(presence.begin(), presence.end(),
            [](const PresenceInterval& a, const PresenceInterval& b) {
              return a.when.start < b.when.start;
            });
  std::vector<PresenceInterval> merged;
  for (const auto& p : presence) {
    if (!merged.empty() && merged.back().band == p.band &&
        p.when.start <= merged.back().when.end) {
      merged.back().when.end = std::max(merged.back().when.end, p.when.end);
    } else {
      merged.push_back(p);
    }
  }
  return merged;
}

}  // namespace bismark::home
