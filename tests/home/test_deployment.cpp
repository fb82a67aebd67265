#include <gtest/gtest.h>

#include <set>

#include "analysis/downtime.h"

#include "home/deployment.h"

namespace bismark::home {
namespace {

DeploymentOptions FastOptions(std::uint64_t seed = 7, bool traffic = false) {
  DeploymentOptions options;
  options.seed = seed;
  options.windows = collect::DatasetWindows::Compressed(MakeTime({2013, 3, 1}), 3);
  options.run_traffic = traffic;
  return options;
}

/// One run of FastOptions(). build() only assembles the roster; run()'s
/// shard tasks construct each household and register its HomeInfo.
const Deployment& FastStudy() {
  static const std::unique_ptr<Deployment> study = Deployment::RunStudy(FastOptions());
  return *study;
}

TEST(DeploymentTest, BuildsFullRoster) {
  Deployment built(FastOptions());
  built.build();
  EXPECT_EQ(built.roster_size(), 126u);
  EXPECT_TRUE(built.repository().homes().empty());

  const Deployment& deployment = FastStudy();
  EXPECT_EQ(deployment.repository().homes().size(), 126u);
  // Every household registered with a matching id.
  for (std::size_t idx = 0; idx < deployment.roster_size(); ++idx) {
    EXPECT_NE(deployment.repository().find_home(deployment.make_household(idx)->id()),
              nullptr);
  }
}

TEST(DeploymentTest, Table2SubPopulationFlags) {
  const Deployment& deployment = FastStudy();
  int uptime = 0, wifi = 0, traffic_homes = 0;
  for (const auto& info : deployment.repository().homes()) {
    uptime += info.reports_uptime;
    wifi += info.reports_wifi;
    traffic_homes += info.consented_traffic;
  }
  EXPECT_EQ(uptime, 113);         // Table 2: Uptime/Devices routers
  EXPECT_EQ(wifi, 93);            // Table 2: WiFi routers
  EXPECT_EQ(traffic_homes, 25);   // Table 2: Traffic homes (US, consented)
}

TEST(DeploymentTest, TrafficConsentIsUsOnly) {
  const Deployment& deployment = FastStudy();
  for (const auto& info : deployment.repository().homes()) {
    if (info.consented_traffic) {
      EXPECT_EQ(info.country_code, "US");
    }
  }
}

TEST(DeploymentTest, BufferbloatHomesAreTrafficHomes) {
  Deployment deployment(FastOptions());
  deployment.build();
  int bufferbloat = 0;
  std::set<int> flavors;
  for (std::size_t idx = 0; idx < deployment.roster_size(); ++idx) {
    const auto home = deployment.make_household(idx);
    if (home->bufferbloat_case()) {
      ++bufferbloat;
      flavors.insert(home->bufferbloat_flavor());
      EXPECT_EQ(home->consent(), gateway::ConsentLevel::kFullTraffic);
      EXPECT_TRUE(home->link().config().allow_uplink_overdrive);
    }
  }
  EXPECT_EQ(bufferbloat, 2);
  EXPECT_EQ(flavors.size(), 2u);  // one constant (16a), one diurnal (16b)
}

TEST(DeploymentTest, RosterScaleShrinksDeployment) {
  DeploymentOptions options = FastOptions();
  options.roster_scale = 0.25;
  const auto deployment = Deployment::RunStudy(options);
  // Every country keeps at least one router; totals shrink accordingly.
  EXPECT_LT(deployment->roster_size(), 60u);
  EXPECT_GE(deployment->roster_size(), 19u);
  EXPECT_EQ(deployment->repository().homes().size(), deployment->roster_size());
  std::set<std::string> countries;
  for (const auto& info : deployment->repository().homes()) {
    countries.insert(info.country_code);
  }
  EXPECT_EQ(countries.size(), 19u);
}

TEST(DeploymentTest, DeterministicAcrossRuns) {
  Deployment a(FastOptions(42));
  a.build();
  Deployment b(FastOptions(42));
  b.build();
  ASSERT_EQ(a.roster_size(), b.roster_size());
  for (std::size_t i = 0; i < a.roster_size(); ++i) {
    const auto ha = a.make_household(i);
    const auto hb = b.make_household(i);
    EXPECT_EQ(ha->devices().size(), hb->devices().size());
    EXPECT_EQ(ha->power_mode(), hb->power_mode());
    EXPECT_EQ(ha->timeline().router_on.size(), hb->timeline().router_on.size());
  }
}

TEST(DeploymentTest, DifferentSeedsDifferentWorlds) {
  Deployment a(FastOptions(1));
  a.build();
  Deployment b(FastOptions(2));
  b.build();
  int differing = 0;
  for (std::size_t i = 0; i < a.roster_size(); ++i) {
    if (a.make_household(i)->devices().size() != b.make_household(i)->devices().size()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 20);
}

TEST(DeploymentTest, RunWithoutTrafficSkipsTrafficDatasets) {
  auto deployment = Deployment::RunStudy(FastOptions(7, false));
  const auto counts = deployment->repository().counts();
  EXPECT_GT(counts.heartbeat_runs, 0u);
  EXPECT_GT(counts.device_counts, 0u);
  EXPECT_EQ(counts.flows, 0u);
  EXPECT_EQ(counts.throughput_minutes, 0u);
}

TEST(DeploymentTest, AlwaysConnectedFlagsComputedAtBuild) {
  // The flags come from each household as its shard task constructs it.
  const Deployment& deployment = FastStudy();
  int with_wired = 0;
  for (const auto& info : deployment.repository().homes()) {
    if (info.has_always_wired) ++with_wired;
  }
  // Some developed homes qualify; never all homes.
  EXPECT_GT(with_wired, 10);
  EXPECT_LT(with_wired, 126);
}


TEST(DeploymentTest, ChurnHomesExistButFailTheLongevityFilter) {
  // The paper's Fig. 2: 295 routers ever contributed, 126 consistently.
  DeploymentOptions options = FastOptions(5);
  options.windows = collect::DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 8);
  options.churn_homes = 30;
  auto deployment = Deployment::RunStudy(options);
  const auto& repo = deployment->repository();
  EXPECT_EQ(repo.homes().size(), 156u);  // 126 core + 30 churn

  // Churn homes do send heartbeats...
  std::set<int> reporting;
  for (const auto& run : repo.heartbeat_runs()) reporting.insert(run.home.value);
  EXPECT_GT(reporting.size(), 140u);

  // ...but the >= 25-days-online filter drops them from the analysis.
  const auto homes = analysis::AnalyzeAvailability(repo, {Minutes(10), 25.0});
  int churn_qualifying = 0;
  for (const auto& h : homes) {
    if (h.home.value >= 126) ++churn_qualifying;
  }
  EXPECT_EQ(churn_qualifying, 0);

  // Churn homes contribute no passive data sets.
  for (const auto& rec : repo.device_counts()) EXPECT_LT(rec.home.value, 126);
  for (const auto& rec : repo.capacity()) EXPECT_LT(rec.home.value, 126);
}

}  // namespace
}  // namespace bismark::home
