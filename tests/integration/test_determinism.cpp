// The parallel runner's contract: worker count is a pure performance knob.
// Same seed => same repository => same CSV bytes, whether the study ran on
// one thread or eight, and whether it is the first or the tenth run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "collect/export.h"
#include "home/deployment.h"

namespace bismark {
namespace {

using home::Deployment;
using home::DeploymentOptions;

DeploymentOptions SmallStudy(int workers) {
  DeploymentOptions options;
  options.seed = 20130417;
  options.windows = collect::DatasetWindows::Compressed(MakeTime({2013, 3, 1}), 2);
  options.roster_scale = 0.35;
  options.traffic_homes = 4;
  options.bufferbloat_homes = 1;
  options.churn_homes = 5;
  options.collector_outages_per_month = 2.0;
  options.workers = workers;
  return options;
}

/// Every public data set plus the withheld Traffic flows, concatenated.
std::string ExportAllCsv(const collect::DataRepository& repo) {
  std::ostringstream out;
  collect::ExportHeartbeats(repo, out);
  collect::ExportUptime(repo, out);
  collect::ExportCapacity(repo, out);
  collect::ExportDevices(repo, out);
  collect::ExportWifi(repo, out);
  collect::ExportTrafficFlows(repo, out);
  return out.str();
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    serial_csv_ = new std::string(
        ExportAllCsv(Deployment::RunStudy(SmallStudy(1))->repository()));
  }
  static void TearDownTestSuite() {
    delete serial_csv_;
    serial_csv_ = nullptr;
  }
  static std::string* serial_csv_;
};

std::string* ParallelDeterminismTest::serial_csv_ = nullptr;

TEST_F(ParallelDeterminismTest, EightWorkersMatchSerialByteForByte) {
  const auto parallel = Deployment::RunStudy(SmallStudy(8));
  EXPECT_EQ(*serial_csv_, ExportAllCsv(parallel->repository()));

  const auto counts = parallel->repository().counts();
  EXPECT_GT(counts.heartbeat_runs, 0u);
  EXPECT_GT(counts.capacity, 0u);
  EXPECT_GT(counts.flows, 0u);  // the traffic window really ran sharded
}

TEST_F(ParallelDeterminismTest, RepeatedEightWorkerRunsAgree) {
  const std::string first = ExportAllCsv(Deployment::RunStudy(SmallStudy(8))->repository());
  const std::string second = ExportAllCsv(Deployment::RunStudy(SmallStudy(8))->repository());
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, *serial_csv_);
}

TEST_F(ParallelDeterminismTest, OddWorkerCountsAndAutoDetectAgreeToo) {
  // 3 workers (doesn't divide the shard count evenly) and auto-detect.
  EXPECT_EQ(*serial_csv_, ExportAllCsv(Deployment::RunStudy(SmallStudy(3))->repository()));
  EXPECT_EQ(*serial_csv_, ExportAllCsv(Deployment::RunStudy(SmallStudy(0))->repository()));
}

/// The golden export hash: std::hash of the six release exports above,
/// concatenated, for bench_fleet's golden study. It pins the bytes of every
/// release view, the withheld traffic view included, over a whole study.
constexpr std::size_t kGoldenExportHash = 0xf82316df7b15d09bULL;

/// bench_fleet's golden study: seed 20131023, 126 homes, 4-week compressed
/// windows from 2012-10-01, 4 workers.
DeploymentOptions GoldenStudy() {
  DeploymentOptions options;
  options.seed = 20131023;
  options.windows = collect::DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 4);
  options.homes = 126;
  options.workers = 4;
  return options;
}

TEST(GoldenExportHash, ResidentStudyMatchesGolden) {
  const auto study = Deployment::RunStudy(GoldenStudy());
  EXPECT_EQ(std::hash<std::string>{}(ExportAllCsv(study->repository())), kGoldenExportHash);
}

TEST(GoldenExportHash, SpilledStudyMatchesGolden) {
  namespace fs = std::filesystem;
  const fs::path spill =
      fs::temp_directory_path() / ("bsmk-test-golden-" + std::to_string(::getpid()));
  fs::remove_all(spill);
  DeploymentOptions options = GoldenStudy();
  options.memory_budget_bytes = std::size_t{8} << 20;
  options.spill_dir = spill.string();
  {
    const auto study = Deployment::RunStudy(options);
    ASSERT_TRUE(study->repository().spilling());
    EXPECT_EQ(std::hash<std::string>{}(ExportAllCsv(study->repository())), kGoldenExportHash);
  }
  fs::remove_all(spill);
}

}  // namespace
}  // namespace bismark
