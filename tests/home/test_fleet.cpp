// Fleet-mode deployment invariants: the --homes roster apportionment, the
// bounded-memory spill path's byte-identity with the in-RAM path,
// worker-count independence of the exports, spilled and in RAM, and the
// cap of threads and segment logs at one per shard.
#include <unistd.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "collect/export.h"
#include "home/deployment.h"

namespace bismark::home {
namespace {

DeploymentOptions BaseOptions() {
  DeploymentOptions options;
  options.seed = 4242;
  options.windows = collect::DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 1);
  return options;
}

std::string ExportAllToString(const collect::DataRepository& repo) {
  std::ostringstream out;
  collect::ExportHeartbeats(repo, out);
  collect::ExportUptime(repo, out);
  collect::ExportCapacity(repo, out);
  collect::ExportDevices(repo, out);
  collect::ExportWifi(repo, out);
  collect::ExportTrafficFlows(repo, out);
  return out.str();
}

std::filesystem::path FreshSpillDir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("bsmk-test-fleet-") + tag + "-" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(FleetRoster, Homes126ReproducesDefaultRoster) {
  auto by_scale = BaseOptions();
  const auto a = Deployment::RunStudy(by_scale);

  auto by_homes = BaseOptions();
  by_homes.homes = 126;
  const auto b = Deployment::RunStudy(by_homes);

  // The largest-remainder apportionment at N=126 must reproduce the
  // default Table 1 roster bit-for-bit: same homes, same records.
  EXPECT_EQ(b->roster_size(), 126u);
  EXPECT_EQ(a->repository().homes().size(), b->repository().homes().size());
  EXPECT_EQ(ExportAllToString(a->repository()), ExportAllToString(b->repository()));
}

TEST(FleetRoster, ApportionmentTracksCountryMix) {
  auto options = BaseOptions();
  options.homes = 1260;  // 10x: every country's share scales exactly
  options.run_traffic = false;
  const auto study = Deployment::RunStudy(options);
  EXPECT_EQ(study->roster_size(), 1260u);

  auto reference = BaseOptions();
  reference.run_traffic = false;
  const auto base = Deployment::RunStudy(reference);

  // Count homes per country in both rosters.
  std::map<std::string, int> big, small;
  for (const auto& h : study->repository().homes()) big[h.country_code]++;
  for (const auto& h : base->repository().homes()) small[h.country_code]++;
  ASSERT_EQ(big.size(), small.size());
  for (const auto& [cc, n] : small) {
    EXPECT_EQ(big[cc], 10 * n) << "country " << cc;
  }
}

TEST(FleetMode, SpilledExportsMatchInRam) {
  auto in_ram = BaseOptions();
  in_ram.homes = 48;
  const auto a = Deployment::RunStudy(in_ram);
  const std::string golden = ExportAllToString(a->repository());
  ASSERT_FALSE(golden.empty());

  // In RAM, too, worker threads commit batches and register homes as their
  // shards finish; the canonical order must erase the race.
  in_ram.workers = 3;
  const auto a3 = Deployment::RunStudy(in_ram);
  EXPECT_EQ(ExportAllToString(a3->repository()), golden) << "in RAM, workers=3";
  ASSERT_EQ(a3->repository().homes().size(), a->repository().homes().size());
  for (std::size_t i = 0; i < a->repository().homes().size(); ++i) {
    EXPECT_EQ(a3->repository().homes()[i], a->repository().homes()[i]) << "home " << i;
  }

  for (const int workers : {1, 3}) {
    auto fleet = BaseOptions();
    fleet.homes = 48;
    fleet.memory_budget_bytes = 1 << 20;  // tiny: forces mid-shard flushes
    fleet.workers = workers;
    const auto dir = FreshSpillDir(workers == 1 ? "w1" : "w3");
    fleet.spill_dir = dir.string();
    const auto b = Deployment::RunStudy(fleet);

    EXPECT_TRUE(b->repository().spilling());
    EXPECT_EQ(ExportAllToString(b->repository()), golden) << "workers=" << workers;
    // Fleet homes register from worker threads; the canonical order and
    // metadata must match the in-RAM registration exactly.
    ASSERT_EQ(b->repository().homes().size(), a->repository().homes().size());
    for (std::size_t i = 0; i < a->repository().homes().size(); ++i) {
      EXPECT_EQ(b->repository().homes()[i], a->repository().homes()[i]) << "home " << i;
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(FleetMode, ChurnAndConsentSurviveTheSpillPath) {
  auto options = BaseOptions();
  options.homes = 48;
  options.memory_budget_bytes = 1 << 20;
  const auto dir = FreshSpillDir("consent");
  options.spill_dir = dir.string();
  const auto study = Deployment::RunStudy(options);

  int consented = 0;
  for (const auto& h : study->repository().homes()) consented += h.consented_traffic;
  // Traffic consent is pinned to the first 25 US homes regardless of N.
  EXPECT_GT(consented, 0);
  EXPECT_LE(consented, 25);
  std::filesystem::remove_all(dir);
}

TEST(FleetMode, WorkersBeyondShardsStartNoExtraThreadOrLog) {
  auto options = BaseOptions();
  options.homes = 24;
  options.memory_budget_bytes = 1 << 20;
  options.workers = 1;
  const auto dir1 = FreshSpillDir("cap-w1");
  options.spill_dir = dir1.string();
  const auto one = Deployment::RunStudy(options);
  const std::string golden = ExportAllToString(one->repository());
  ASSERT_FALSE(golden.empty());

  // Far more workers than shards: the pool and the segment logs stop at
  // one per shard, and the flush threshold with them.
  options.workers = 64;
  const auto dir = FreshSpillDir("cap-w64");
  options.spill_dir = dir.string();
  const auto wide = Deployment::RunStudy(options);
  const std::size_t shards = wide->shard_count();
  ASSERT_LT(shards, 64u);
  EXPECT_EQ(wide->telemetry().workers, static_cast<int>(shards));
  std::size_t logs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    logs += name.starts_with("seg-g0-w") && name.ends_with(".bsmkseg");
  }
  EXPECT_EQ(logs, shards);
  EXPECT_EQ(ExportAllToString(wide->repository()), golden);
  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bismark::home
