#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "home/household.h"
#include "traffic/domains.h"

namespace bismark::home {
namespace {

class HouseholdTest : public ::testing::Test {
 protected:
  HouseholdTest()
      : catalog_(traffic::DomainCatalog::BuildStandard()),
        anonymizer_(catalog_, {}) {}

  std::unique_ptr<Household> MakeHome(const std::string& country, std::uint64_t seed,
                                      HouseholdOptions options = {}) {
    return std::make_unique<Household>(collect::HomeId{1}, CountryByCode(country), study_,
                                       presence_windows_, anonymizer_, nullptr, Rng(seed),
                                       options);
  }

  Interval study_{MakeTime({2012, 10, 1}), MakeTime({2012, 10, 1}) + Days(56)};
  std::vector<Interval> presence_windows_{
      {MakeTime({2012, 10, 1}), MakeTime({2012, 10, 1}) + Days(56)}};
  traffic::DomainCatalog catalog_;
  gateway::Anonymizer anonymizer_;
};

TEST_F(HouseholdTest, BuildsDevicesAndInfrastructure) {
  const auto home = MakeHome("US", 1);
  EXPECT_GE(home->devices().size(), 1u);
  EXPECT_GT(home->link().config().down_capacity.mbps(), 0.0);
  EXPECT_GT(home->link().config().up_capacity.mbps(), 0.0);
  EXPECT_LT(home->link().config().up_capacity.bps, home->link().config().down_capacity.bps);
}

TEST_F(HouseholdTest, DeterministicForSeed) {
  const auto a = MakeHome("US", 7);
  const auto b = MakeHome("US", 7);
  ASSERT_EQ(a->devices().size(), b->devices().size());
  for (std::size_t i = 0; i < a->devices().size(); ++i) {
    EXPECT_EQ(a->devices()[i].spec().mac, b->devices()[i].spec().mac);
    EXPECT_EQ(a->devices()[i].spec().type, b->devices()[i].spec().type);
  }
  EXPECT_EQ(a->power_mode(), b->power_mode());
}

TEST_F(HouseholdTest, MinDevicesEnforced) {
  HouseholdOptions options;
  options.min_devices = 3;
  for (int seed = 0; seed < 20; ++seed) {
    const auto home = std::make_unique<Household>(
        collect::HomeId{seed}, CountryByCode("US"), study_, presence_windows_, anonymizer_,
        nullptr, Rng(seed), options);
    EXPECT_GE(home->devices().size(), 3u);
  }
}

TEST_F(HouseholdTest, ForcedDeviceCount) {
  HouseholdOptions options;
  options.forced_device_count = 6;
  const auto home = MakeHome("US", 3, options);
  EXPECT_EQ(home->devices().size(), 6u);
}

TEST_F(HouseholdTest, CensusCountsRespectRouterPower) {
  HouseholdOptions options;
  options.forced_device_count = 8;
  const auto home = MakeHome("CN", 5, options);
  // Find a time the router is off; all counts must be zero there.
  bool found_off = false;
  for (int h = 0; h < 56 * 24 && !found_off; ++h) {
    const TimePoint t = study_.start + Hours(h);
    if (!home->timeline().router_on_at(t)) {
      found_off = true;
      EXPECT_EQ(home->wired_connected(t), 0);
      EXPECT_EQ(home->wireless_connected(wireless::Band::k2_4GHz, t), 0);
      EXPECT_EQ(home->wireless_connected(wireless::Band::k5GHz, t), 0);
    }
  }
  EXPECT_TRUE(found_off);
}

TEST_F(HouseholdTest, WiredCountCappedAtFourPorts) {
  HouseholdOptions options;
  options.forced_device_count = 30;  // force many wired devices
  const auto home = MakeHome("US", 11, options);
  for (int h = 0; h < 56 * 24; h += 3) {
    EXPECT_LE(home->wired_connected(study_.start + Hours(h)), 4);
  }
}

TEST_F(HouseholdTest, UniqueSeenGrowsMonotonically) {
  const auto home = MakeHome("US", 13);
  int prev = 0;
  for (int d = 1; d <= 56; d += 7) {
    const int seen = home->unique_seen_total(study_.start, study_.start + Days(d));
    EXPECT_GE(seen, prev);
    prev = seen;
  }
  EXPECT_LE(prev, static_cast<int>(home->devices().size()));
}

TEST_F(HouseholdTest, UniqueSeenBandsPartitionWireless) {
  const auto home = MakeHome("US", 17);
  const int on24 =
      home->unique_seen_band(wireless::Band::k2_4GHz, study_.start, study_.end);
  const int on5 = home->unique_seen_band(wireless::Band::k5GHz, study_.start, study_.end);
  int wireless_devices = 0;
  for (const auto& d : home->devices()) {
    if (!d.spec().wired) ++wireless_devices;
  }
  // A dual-band device can appear on both bands, so the sum may exceed the
  // device count but each side is bounded by it.
  EXPECT_LE(on24, wireless_devices);
  EXPECT_LE(on5, wireless_devices);
}

TEST_F(HouseholdTest, BufferbloatCaseConfiguration) {
  HouseholdOptions options;
  options.bufferbloat_case = true;
  options.consent = gateway::ConsentLevel::kFullTraffic;
  const auto home = MakeHome("US", 19, options);
  EXPECT_TRUE(home->bufferbloat_case());
  EXPECT_TRUE(home->link().config().allow_uplink_overdrive);
  EXPECT_EQ(home->power_mode(), RouterPowerMode::kAlwaysOn);
  // The dedicated uploader NAS exists and is always on.
  bool has_nas = false;
  for (const auto& d : home->devices()) {
    if (d.spec().type == traffic::DeviceType::kNas && d.spec().always_on) has_nas = true;
  }
  EXPECT_TRUE(has_nas);
}

TEST_F(HouseholdTest, AlwaysConnectedRequiresAlwaysOnRouter) {
  // An appliance-mode home cannot have always-connected devices no matter
  // what hardware it owns — the Table 5 mechanism.
  HouseholdOptions options;
  options.forced_device_count = 10;
  for (int seed = 0; seed < 10; ++seed) {
    auto home = std::make_unique<Household>(collect::HomeId{seed}, CountryByCode("CN"), study_,
                                            presence_windows_, anonymizer_, nullptr, Rng(seed),
                                            options);
    if (home->power_mode() == RouterPowerMode::kAppliance) {
      EXPECT_FALSE(home->has_always_connected(true, Interval{study_.start, study_.end}));
      EXPECT_FALSE(home->has_always_connected(false, Interval{study_.start, study_.end}));
    }
  }
}

TEST_F(HouseholdTest, MakeInfoReflectsGroundTruth) {
  const auto home = MakeHome("GB", 23);
  const auto info = home->make_info();
  EXPECT_EQ(info.country_code, "GB");
  EXPECT_TRUE(info.developed);
  EXPECT_EQ(info.utc_offset, Hours(0));
  EXPECT_FALSE(info.consented_traffic);
  EXPECT_NEAR(info.true_down_mbps, home->link().config().down_capacity.mbps(), 1e-9);
}

TEST_F(HouseholdTest, PrimaryDeviceIsHungryAndPresent) {
  HouseholdOptions options;
  options.forced_device_count = 8;
  const auto home = MakeHome("US", 29, options);
  const auto& primary = home->devices()[home->primary_device()];
  // The primary must be at least as attractive as any other device under
  // the same scoring.
  const double primary_score =
      primary.spec().hunger_scale *
      (0.25 + primary.presence_fraction(study_.start, study_.end));
  for (const auto& d : home->devices()) {
    const double score =
        d.spec().hunger_scale * (0.25 + d.presence_fraction(study_.start, study_.end));
    EXPECT_LE(score, primary_score + 1e-9);
  }
}

TEST_F(HouseholdTest, DistinctWanAddressesPerHome) {
  Household a(collect::HomeId{1}, CountryByCode("US"), study_, presence_windows_, anonymizer_,
              nullptr, Rng(1));
  Household b(collect::HomeId{2}, CountryByCode("US"), study_, presence_windows_, anonymizer_,
              nullptr, Rng(1));
  EXPECT_NE(a.router().nat().config().wan_address, b.router().nat().config().wan_address);
}

// The census answered by brute force: band_at per device, and
// covered_within over each device's presence while the router is on.
class BruteForceCensus {
 public:
  BruteForceCensus(const std::vector<Device>& devices, const IntervalSet& router_on)
      : devices_(devices), router_on_(router_on) {
    for (const auto& d : devices) {
      seen_.push_back(d.presence_set().intersect(router_on));
      for (wireless::Band band : {wireless::Band::k2_4GHz, wireless::Band::k5GHz}) {
        IntervalSet on_band;
        for (const auto& p : d.presence()) {
          if (!d.spec().wired && p.band == band) on_band.add(p.when);
        }
        seen_band_[static_cast<std::size_t>(band)].push_back(on_band.intersect(router_on));
      }
    }
  }

  int wireless_connected(wireless::Band band, TimePoint t) const {
    if (!router_on_.contains(t)) return 0;
    int n = 0;
    for (const auto& d : devices_) {
      if (d.band_at(t) == band) ++n;
    }
    return n;
  }
  int unique_seen_total(TimePoint since, TimePoint until) const {
    return CountCovered(seen_, since, until);
  }
  int unique_seen_band(wireless::Band band, TimePoint since, TimePoint until) const {
    return CountCovered(seen_band_[static_cast<std::size_t>(band)], since, until);
  }

 private:
  static int CountCovered(const std::vector<IntervalSet>& sets, TimePoint since,
                          TimePoint until) {
    int n = 0;
    for (const auto& set : sets) {
      if (set.covered_within(since, until).ms > 0) ++n;
    }
    return n;
  }

  const std::vector<Device>& devices_;
  const IntervalSet& router_on_;
  std::vector<IntervalSet> seen_;
  std::array<std::vector<IntervalSet>, 2> seen_band_;
};

// Compares all three census queries with the brute force at every presence
// and router-on edge (start, end - 1 ms, end) and on a 7-minute grid, for
// two `since` values asked in turn. Returns the number of instants checked.
template <typename Census>
std::size_t ExpectCensusMatchesBruteForce(const Census& census,
                                          const std::vector<Device>& devices,
                                          const IntervalSet& router_on, Interval window) {
  const BruteForceCensus brute(devices, router_on);
  std::vector<TimePoint> instants;
  auto add_edges = [&instants](Interval iv) {
    instants.push_back(iv.start);
    instants.push_back(iv.end - Millis(1));
    instants.push_back(iv.end);
  };
  for (const auto& d : devices) {
    for (const auto& p : d.presence()) add_edges(p.when);
  }
  for (const auto& iv : router_on.intervals()) add_edges(iv);
  for (TimePoint t = window.start - Minutes(7); t <= window.end + Minutes(7); t += Minutes(7)) {
    instants.push_back(t);
  }
  std::sort(instants.begin(), instants.end());
  instants.erase(std::unique(instants.begin(), instants.end()), instants.end());

  const TimePoint sinces[] = {window.start, window.start + (window.end - window.start) / 3};
  const wireless::Band bands[] = {wireless::Band::k2_4GHz, wireless::Band::k5GHz};
  for (const TimePoint t : instants) {
    for (const wireless::Band band : bands) {
      EXPECT_EQ(census.wireless_connected(band, t), brute.wireless_connected(band, t))
          << "band " << static_cast<int>(band) << " at " << t.ms;
    }
    for (const TimePoint since : sinces) {
      EXPECT_EQ(census.unique_seen_total(since, t), brute.unique_seen_total(since, t))
          << "since " << since.ms << " until " << t.ms;
      for (const wireless::Band band : bands) {
        EXPECT_EQ(census.unique_seen_band(band, since, t), brute.unique_seen_band(band, since, t))
            << "band " << static_cast<int>(band) << " since " << since.ms << " until " << t.ms;
      }
    }
  }
  return instants.size();
}

TEST_F(HouseholdTest, CensusMatchesBruteForce) {
  // Developed and developing homes, including one whose router power-cycles
  // often (an appliance-mode or night-off home).
  struct Case {
    const char* country;
    std::uint64_t seed;
    int devices;
  };
  const Case cases[] = {{"US", 13, 0}, {"GB", 23, 0}, {"US", 3, 12}, {"CN", 5, 8}, {"IN", 31, 0}};
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << c.country << " seed " << c.seed);
    HouseholdOptions options;
    options.forced_device_count = c.devices;
    const auto home = MakeHome(c.country, c.seed, options);
    ExpectCensusMatchesBruteForce(*home, home->devices(), home->timeline().router_on, study_);
  }

  bool cycled = false;
  for (std::uint64_t seed = 0; seed < 40 && !cycled; ++seed) {
    HouseholdOptions options;
    options.forced_device_count = 8;
    const auto home = MakeHome("PK", seed, options);
    if (home->timeline().router_on.size() < 56) continue;
    cycled = true;
    SCOPED_TRACE(testing::Message() << "PK seed " << seed << ", "
                                    << home->timeline().router_on.size() << " power-on intervals");
    ExpectCensusMatchesBruteForce(*home, home->devices(), home->timeline().router_on, study_);
  }
  EXPECT_TRUE(cycled) << "no PK home power-cycles at least daily";

  {
    SCOPED_TRACE("hand-built overlapping bands");
    // A dual-band device whose intervals overlap on different bands, two of
    // them starting together: band_at's first-match rule decides which band
    // each instant counts on, while the per-band unique count sees every
    // interval of the band.
    const TimePoint t = study_.start;
    DeviceSpec dual;
    dual.dual_band = true;
    const Device overlapping(
        dual, {{{t + Hours(10), t + Hours(12)}, wireless::Band::k5GHz},
               {{t, t + Hours(5)}, wireless::Band::k5GHz},
               {{t + Hours(2), t + Hours(4)}, wireless::Band::k2_4GHz},
               {{t + Hours(3), t + Hours(8)}, wireless::Band::k2_4GHz},
               {{t + Hours(10), t + Hours(14)}, wireless::Band::k2_4GHz},
               {{t + Hours(13), t + Hours(15)}, wireless::Band::k5GHz}});
    DeviceSpec wired;
    wired.wired = true;
    DeviceSpec single;
    const std::vector<Device> devices = {
        overlapping,
        Device(wired, {{{t + Hours(1), t + Hours(9)}, wireless::Band::k2_4GHz}}),
        Device(single, {{{t + Hours(4), t + Hours(11)}, wireless::Band::k2_4GHz}})};
    IntervalSet router_on;
    router_on.add(t + Hours(1), t + Hours(8));
    router_on.add(t + Hours(9), t + Hours(11));
    router_on.add(t + Hours(11) + Minutes(30), t + Hours(20));

    // The segments are disjoint and carry band_at's band at both ends; the
    // 2.4 GHz interval inside the first 5 GHz one never shows in band_at.
    const auto segments = overlapping.band_segments();
    ASSERT_GE(segments.size(), 4u);
    for (std::size_t i = 0; i < segments.size(); ++i) {
      if (i > 0) {
        EXPECT_LE(segments[i - 1].when.end, segments[i].when.start);
      }
      EXPECT_EQ(overlapping.band_at(segments[i].when.start), segments[i].band);
      EXPECT_EQ(overlapping.band_at(segments[i].when.end - Millis(1)), segments[i].band);
    }
    EXPECT_EQ(overlapping.band_at(t + Hours(3)), wireless::Band::k5GHz);
    EXPECT_EQ(overlapping.band_at(t + Hours(6)), wireless::Band::k2_4GHz);

    const DeviceCensus census(devices, router_on);
    ExpectCensusMatchesBruteForce(census, devices, router_on, Interval{t, t + Days(1)});
    // From 2 h the inner 2.4 GHz interval counts the device as seen on 2.4 GHz,
    // though band_at reports 5 GHz there.
    EXPECT_EQ(census.unique_seen_band(wireless::Band::k2_4GHz, t, t + Hours(2) + Millis(1)), 1);
    EXPECT_EQ(census.wireless_connected(wireless::Band::k2_4GHz, t + Hours(2)), 0);
  }
}

}  // namespace
}  // namespace bismark::home
