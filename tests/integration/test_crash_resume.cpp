// Crash/resume byte-identity: kill -9 a fleet run at injected I/O fault
// points, resume the directory, and require the recovered exports to match
// an uninterrupted reference run byte for byte — at several kill points and
// worker counts, including resuming with a different worker count than the
// run that crashed.
//
// The kill is real: the child process installs a kill fault plan, runs the
// study, and std::_Exit(137)s mid-write with no flushing and no destructors
// — exactly what `kill -9` leaves behind. The parent then recovers the
// directory in-process, once, as `run --resume` does at startup, and hands
// the recovery to the resumed deployment.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>

#include "collect/export.h"
#include "collect/manifest.h"
#include "core/io.h"
#include "home/deployment.h"

namespace bismark {
namespace {

namespace fs = std::filesystem;

using home::Deployment;
using home::DeploymentOptions;

DeploymentOptions FleetStudy(int workers, const std::string& spill_dir) {
  DeploymentOptions options;
  options.seed = 20131023;
  options.windows = collect::DatasetWindows::Compressed(MakeTime({2013, 3, 1}), 2);
  options.roster_scale = 0.35;
  options.traffic_homes = 4;
  options.bufferbloat_homes = 1;
  options.churn_homes = 5;
  options.collector_outages_per_month = 2.0;
  options.workers = workers;
  options.memory_budget_bytes = 1 << 20;  // fleet mode with aggressive spilling
  options.spill_dir = spill_dir;
  options.checkpoint_every = 2;
  return options;
}

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

fs::path FreshDir(const std::string& tag) {
  const auto dir = fs::temp_directory_path() /
                   ("bsmk-test-crash-" + tag + "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

class CrashResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto dir = FreshDir("ref");
    reference_csv_ = new std::string(
        ExportAllCsv(Deployment::RunStudy(FleetStudy(2, dir.string()))->repository()));
    fs::remove_all(dir);
    ASSERT_FALSE(reference_csv_->empty());
  }
  static void TearDownTestSuite() {
    delete reference_csv_;
    reference_csv_ = nullptr;
  }

  /// Run the study in a forked child with a kill fault armed on the Nth
  /// segment write. Returns the child's exit code: 137 when the kill fired,
  /// 0 when the run finished first (kill point past the write count).
  static int RunAndKill(int workers, const std::string& spill_dir,
                        std::uint64_t kill_at_write) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      core::IoFaultPlan plan;
      plan.kind = core::IoFaultPlan::Kind::kKill;
      plan.at_op = kill_at_write;
      plan.path_substr = ".bsmkseg";
      core::InstallIoFaultPlan(plan);
      try {
        Deployment::RunStudy(FleetStudy(workers, spill_dir));
      } catch (...) {
        std::_Exit(120);  // any throw in the child is a test bug, not a crash
      }
      std::_Exit(0);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// Recover `spill_dir` once, as the CLI does before anything runs.
  static std::shared_ptr<const collect::SpillRecovery> Recover(const std::string& spill_dir) {
    auto recovered = std::make_shared<collect::SpillRecovery>();
    std::string error;
    EXPECT_TRUE(collect::RecoverSpillDir(spill_dir, recovered.get(), &error)) << error;
    return recovered;
  }

  /// Resume the killed directory in-process and return its export bytes;
  /// `*out_rec` gets what recovery found.
  static std::string ResumeAndExport(
      int workers, const std::string& spill_dir,
      std::shared_ptr<const collect::SpillRecovery>* out_rec = nullptr) {
    DeploymentOptions options = FleetStudy(workers, spill_dir);
    options.resume = Recover(spill_dir);
    if (out_rec != nullptr) *out_rec = options.resume;
    return ExportAllCsv(Deployment::RunStudy(std::move(options))->repository());
  }

  static std::string* reference_csv_;
};

std::string* CrashResumeTest::reference_csv_ = nullptr;

TEST_F(CrashResumeTest, EarlyKillResumesToIdenticalExports) {
  const auto dir = FreshDir("early");
  ASSERT_EQ(RunAndKill(/*workers=*/4, dir.string(), /*kill_at_write=*/1), 137);
  std::shared_ptr<const collect::SpillRecovery> rec;
  EXPECT_EQ(ResumeAndExport(/*workers=*/1, dir.string(), &rec), *reference_csv_);
  EXPECT_TRUE(rec->done_shards.empty());  // killed before any shard committed
  fs::remove_all(dir);
}

TEST_F(CrashResumeTest, MidRunKillResumesToIdenticalExports) {
  // Sweep kill points until one lands after at least one committed shard:
  // every crash must converge to the reference bytes, and at least one must
  // exercise the recovered path (verified sections adopted, not re-run).
  bool recovered_some = false;
  for (const std::uint64_t kill : {12u, 30u, 80u, 200u}) {
    const auto dir = FreshDir("mid" + std::to_string(kill));
    const int rc = RunAndKill(/*workers=*/1, dir.string(), kill);
    if (rc != 137) {  // kill point past the run's total write count
      fs::remove_all(dir);
      continue;
    }
    std::shared_ptr<const collect::SpillRecovery> rec;
    EXPECT_EQ(ResumeAndExport(/*workers=*/4, dir.string(), &rec), *reference_csv_)
        << "kill at write " << kill;
    recovered_some |= rec->sections_verified > 0;
    fs::remove_all(dir);
  }
  EXPECT_TRUE(recovered_some);
}

TEST_F(CrashResumeTest, LateKillAndDoubleCrashStillConverge) {
  const auto dir = FreshDir("late");
  ASSERT_EQ(RunAndKill(/*workers=*/4, dir.string(), /*kill_at_write=*/40), 137);
  // Crash the *resume* too: the second generation must recover the first's
  // progress and still converge.
  const int second = RunAndKill(/*workers=*/1, dir.string(), /*kill_at_write=*/20);
  ASSERT_TRUE(second == 137 || second == 0) << second;
  EXPECT_EQ(ResumeAndExport(/*workers=*/4, dir.string()), *reference_csv_);
  fs::remove_all(dir);
}

TEST_F(CrashResumeTest, ResumeOfACompletedRunIsANoOpWithSameBytes) {
  const auto dir = FreshDir("done");
  // Let the run finish normally, then resume the finished directory.
  EXPECT_EQ(ExportAllCsv(Deployment::RunStudy(FleetStudy(2, dir.string()))->repository()),
            *reference_csv_);
  std::shared_ptr<const collect::SpillRecovery> rec;
  EXPECT_EQ(ResumeAndExport(/*workers=*/2, dir.string(), &rec), *reference_csv_);
  EXPECT_EQ(rec->shards_dropped, 0u);
  EXPECT_EQ(rec->sections_quarantined, 0u);
  fs::remove_all(dir);
}

TEST_F(CrashResumeTest, ResumeWithDriftedOptionsIsRefused) {
  const auto dir = FreshDir("drift");
  ASSERT_EQ(RunAndKill(/*workers=*/2, dir.string(), /*kill_at_write=*/4), 137);
  DeploymentOptions drifted = FleetStudy(2, dir.string());
  drifted.resume = Recover(dir.string());
  drifted.seed = 999;  // not the run the manifest records
  EXPECT_THROW(Deployment::RunStudy(std::move(drifted)), std::runtime_error);
  fs::remove_all(dir);
}

TEST_F(CrashResumeTest, ResumeWithoutFleetModeIsRefused) {
  DeploymentOptions options;
  options.seed = 1;
  options.windows = collect::DatasetWindows::Compressed(MakeTime({2013, 3, 1}), 1);
  options.roster_scale = 0.2;
  options.resume = std::make_shared<collect::SpillRecovery>();  // no budget, no spill dir
  EXPECT_THROW(Deployment::RunStudy(std::move(options)), std::runtime_error);
}

}  // namespace
}  // namespace bismark
