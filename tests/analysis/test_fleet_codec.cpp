// Fleet-summary checkpoint codec: the nine sketches plus scalar counts
// round-trip exactly, and damaged blobs fail closed (a resume recomputes
// rather than trusting a bad checkpoint).
#include <gtest/gtest.h>

#include <string>

#include "analysis/fleet.h"
#include "core/rng.h"

namespace bismark::analysis {
namespace {

FleetSummary MakeSummary() {
  Rng rng(20131023);
  FleetSummary s;
  s.homes = 126;
  s.rows = 987654;
  for (int i = 0; i < 2000; ++i) {
    s.availability_fraction.add(rng.uniform());
    s.downtimes_per_day.add(rng.exponential(0.4));
    s.unique_devices.add(static_cast<double>(rng.uniform_int(1, 30)));
    s.capacity_down_mbps.add(rng.lognormal(2.5, 0.8));
    s.capacity_up_mbps.add(rng.lognormal(1.0, 0.7));
    s.visible_aps.add(static_cast<double>(rng.uniform_int(0, 25)));
    s.associated_clients.add(static_cast<double>(rng.uniform_int(0, 12)));
    s.throughput_down_mbps.add(rng.uniform(0.0, 40.0));
    s.flow_kbytes.add(rng.pareto(1.0, 1.2));
  }
  for (const char* code : {"US", "BR", "IN"}) {
    CountryCapacity& cc = s.capacity_by_country[code];
    cc.homes = 42;
    for (int i = 0; i < 200; ++i) {
      cc.down_mbps.add(rng.lognormal(2.5, 0.8));
      cc.up_mbps.add(rng.lognormal(1.0, 0.7));
    }
  }
  // One rosters-only country: registered homes, no capacity probes yet.
  s.capacity_by_country["ZA"].homes = 3;
  return s;
}

TEST(FleetSummaryCodec, RoundTripPreservesEveryDistribution) {
  const FleetSummary original = MakeSummary();
  FleetSummary loaded;
  std::string error;
  ASSERT_TRUE(DeserializeFleetSummary(SerializeFleetSummary(original), &loaded, &error))
      << error;
  EXPECT_EQ(loaded.homes, original.homes);
  EXPECT_EQ(loaded.rows, original.rows);
  const auto same = [](const QuantileSketch& a, const QuantileSketch& b) {
    ASSERT_EQ(a.count(), b.count());
    for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q)) << q;
    }
  };
  same(loaded.availability_fraction, original.availability_fraction);
  same(loaded.downtimes_per_day, original.downtimes_per_day);
  same(loaded.unique_devices, original.unique_devices);
  same(loaded.capacity_down_mbps, original.capacity_down_mbps);
  same(loaded.capacity_up_mbps, original.capacity_up_mbps);
  same(loaded.visible_aps, original.visible_aps);
  same(loaded.associated_clients, original.associated_clients);
  same(loaded.throughput_down_mbps, original.throughput_down_mbps);
  same(loaded.flow_kbytes, original.flow_kbytes);

  ASSERT_EQ(loaded.capacity_by_country.size(), original.capacity_by_country.size());
  for (const auto& [code, cc] : original.capacity_by_country) {
    const auto it = loaded.capacity_by_country.find(code);
    ASSERT_NE(it, loaded.capacity_by_country.end()) << code;
    EXPECT_EQ(it->second.homes, cc.homes) << code;
    same(it->second.down_mbps, cc.down_mbps);
    same(it->second.up_mbps, cc.up_mbps);
  }
}

TEST(FleetSummaryCodec, VersionOneBlobIsRejected) {
  // Version 1 checkpoints predate the per-country capacity table. They are
  // not decoded: a resume fails closed on them and recomputes the summary,
  // as it does for any damaged blob.
  FleetSummary original = MakeSummary();
  original.capacity_by_country.clear();
  std::string blob = SerializeFleetSummary(original);
  ASSERT_EQ(blob.compare(0, 4, "FLS2"), 0);
  blob[3] = '1';                 // the version 1 magic...
  blob.resize(blob.size() - 4);  // ...and layout: no country count
  FleetSummary loaded;
  loaded.homes = 99;
  std::string error;
  EXPECT_FALSE(DeserializeFleetSummary(blob, &loaded, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
  EXPECT_EQ(loaded.homes, 99u) << "a rejected blob must leave *out untouched";
}

TEST(FleetSummaryCodec, FailsClosedOnMalformedCountryTable) {
  const std::string blob = SerializeFleetSummary(MakeSummary());
  FleetSummary out;
  std::string error;
  // Chop inside the country table: a truncated entry must not half-load.
  EXPECT_FALSE(DeserializeFleetSummary(blob.substr(0, blob.size() - 9), &out, &error));
}

TEST(FleetSummaryCodec, FailsClosedOnDamage) {
  const std::string blob = SerializeFleetSummary(MakeSummary());
  FleetSummary out;
  std::string error;
  EXPECT_FALSE(DeserializeFleetSummary("", &out, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
  EXPECT_FALSE(DeserializeFleetSummary(blob.substr(0, blob.size() / 3), &out, &error));
  EXPECT_FALSE(DeserializeFleetSummary(blob + "tail", &out, &error));
  EXPECT_NE(error.find("trailing bytes"), std::string::npos) << error;
  std::string bent = blob;
  bent[1] = 'X';
  EXPECT_FALSE(DeserializeFleetSummary(bent, &out, &error));
}

}  // namespace
}  // namespace bismark::analysis
