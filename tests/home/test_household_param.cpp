// Property sweep: household-assembly invariants for every roster country.
#include <gtest/gtest.h>

#include "home/household.h"
#include "traffic/domains.h"

namespace bismark::home {
namespace {

class HouseholdPerCountryTest : public ::testing::TestWithParam<std::string> {
 protected:
  HouseholdPerCountryTest()
      : catalog_(traffic::DomainCatalog::BuildStandard()), anonymizer_(catalog_, {}) {}

  std::unique_ptr<Household> MakeHome(std::uint64_t seed) {
    return std::make_unique<Household>(collect::HomeId{static_cast<int>(seed)},
                                       CountryByCode(GetParam()), study_, windows_,
                                       anonymizer_, nullptr, Rng(seed), HouseholdOptions{});
  }

  Interval study_{MakeTime({2012, 10, 1}), MakeTime({2012, 10, 1}) + Days(42)};
  std::vector<Interval> windows_{{MakeTime({2012, 10, 1}), MakeTime({2012, 10, 1}) + Days(42)}};
  traffic::DomainCatalog catalog_;
  gateway::Anonymizer anonymizer_;
};

TEST_P(HouseholdPerCountryTest, LinkCapacitiesWithinCountryBand) {
  const auto& country = CountryByCode(GetParam());
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto home = MakeHome(seed);
    const double down = home->link().config().down_capacity.mbps();
    const double up = home->link().config().up_capacity.mbps();
    ASSERT_GE(down, country.down_mbps_lo * 0.99);
    ASSERT_LE(down, country.down_mbps_hi * 1.01);
    ASSERT_GT(up, 0.0);
    ASSERT_LT(up, down);
  }
}

TEST_P(HouseholdPerCountryTest, DevicesHaveValidSpecs) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto home = MakeHome(seed);
    ASSERT_GE(home->devices().size(), 1u);
    ASSERT_LT(home->primary_device(), home->devices().size());
    for (const auto& device : home->devices()) {
      // MACs come from real OUIs of the drawn vendor class.
      ASSERT_EQ(net::OuiRegistry::Instance().classify(device.spec().mac),
                device.spec().vendor);
      // Wired devices are never dual-band.
      if (device.spec().wired) {
        ASSERT_FALSE(device.spec().dual_band);
      }
      // Presence intervals live inside the window.
      for (const auto& p : device.presence()) {
        ASSERT_GE(p.when.start, study_.start);
        ASSERT_LE(p.when.end, study_.end);
      }
    }
  }
}

TEST_P(HouseholdPerCountryTest, CensusNeverExceedsDeviceCount) {
  const auto home = MakeHome(3);
  const int devices = static_cast<int>(home->devices().size());
  for (int h = 0; h < 42 * 24; h += 11) {
    const TimePoint t = study_.start + Hours(h);
    const int total = home->wired_connected(t) +
                      home->wireless_connected(wireless::Band::k2_4GHz, t) +
                      home->wireless_connected(wireless::Band::k5GHz, t);
    ASSERT_LE(total, devices);
    ASSERT_GE(total, 0);
  }
  ASSERT_LE(home->unique_seen_total(study_.start, study_.end), devices);
}

TEST_P(HouseholdPerCountryTest, Channel24IsLegal) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto home = MakeHome(seed);
    const int ch = home->channel_24();
    ASSERT_TRUE(ch == 1 || ch == 6 || ch == 11) << ch;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCountries, HouseholdPerCountryTest,
                         ::testing::Values("US", "GB", "NL", "JP", "SG", "IN", "PK", "ZA",
                                           "CN", "BR"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace bismark::home
