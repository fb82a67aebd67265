// The obs subsystem's headline contract: the rendered metrics and the
// deterministic run report are byte-identical for any --workers value and
// across repeated runs, with fault injection active (fixed fault seed) —
// the same guarantee the CSV exports carry.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "home/deployment.h"
#include "obs/metrics.h"

namespace bismark {
namespace {

using home::Deployment;
using home::DeploymentOptions;

DeploymentOptions FaultedStudy(int workers) {
  DeploymentOptions options;
  options.seed = 20130417;
  options.fault_seed = 777;
  options.windows = collect::DatasetWindows::Compressed(MakeTime({2013, 3, 1}), 2);
  options.roster_scale = 0.3;
  options.run_traffic = false;  // upload-path focus; keeps the suite quick
  options.churn_homes = 4;
  options.collector_outages_per_month = 3.0;
  options.upload_faults.upload_loss_prob = 0.05;
  options.upload_faults.ack_loss_prob = 0.02;
  options.upload.spool_capacity = 64;  // small enough to force drops
  options.workers = workers;
  return options;
}

std::string MetricsText(const Deployment& study) {
  std::ostringstream out;
  obs::WritePrometheus(study.metrics(), out);
  return out.str();
}

std::string DeterministicReportJson(const Deployment& study) {
  std::ostringstream out;
  home::MakeRunReport(study, "test_obs_determinism", /*include_volatile=*/false)
      .write_json(out);
  return out.str();
}

class ObsDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    serial_ = Deployment::RunStudy(FaultedStudy(1)).release();
  }
  static void TearDownTestSuite() {
    delete serial_;
    serial_ = nullptr;
  }
  static const Deployment* serial_;
};

const Deployment* ObsDeterminismTest::serial_ = nullptr;

TEST_F(ObsDeterminismTest, SerialRunExercisesThePipeline) {
  const obs::MetricsSnapshot& m = serial_->metrics();
  EXPECT_FALSE(m.empty());
  EXPECT_GT(m.counter_or("bismark_upload_records_spooled_total"), 0u);
  EXPECT_GT(m.counter_or("bismark_upload_attempts_total"), 0u);
  EXPECT_GT(m.counter_or("bismark_upload_retries_total"), 0u);  // faults bit
  EXPECT_GT(m.counter_or("bismark_engine_events_executed_total"), 0u);
  EXPECT_EQ(m.counter_or("bismark_homes_simulated_total"),
            serial_->roster_size());

  // Conservation: spooled == delivered + dropped + stranded, exactly.
  const obs::Conservation c = obs::ConservationFromMetrics(m);
  EXPECT_TRUE(c.holds()) << "spooled=" << c.spooled << " delivered=" << c.delivered
                         << " dropped=" << c.dropped << " stranded=" << c.stranded;

  // UploadStats is a view of the same registry — they must agree.
  const home::UploadStats& up = serial_->upload_stats();
  EXPECT_EQ(up.records_spooled, c.spooled);
  EXPECT_EQ(up.records_delivered, c.delivered);
  EXPECT_EQ(up.records_dropped, c.dropped);
  EXPECT_EQ(up.records_stranded, c.stranded);
}

TEST_F(ObsDeterminismTest, MetricsBytesIdenticalAcrossWorkerCounts) {
  const std::string serial_text = MetricsText(*serial_);
  ASSERT_FALSE(serial_text.empty());
  for (const int workers : {4, 8}) {
    const auto parallel = Deployment::RunStudy(FaultedStudy(workers));
    EXPECT_EQ(serial_text, MetricsText(*parallel))
        << "metrics diverged at --workers " << workers;
  }
}

TEST_F(ObsDeterminismTest, MetricsBytesIdenticalAcrossRepeatedRuns) {
  const auto rerun = Deployment::RunStudy(FaultedStudy(1));
  EXPECT_EQ(MetricsText(*serial_), MetricsText(*rerun));
}

TEST_F(ObsDeterminismTest, DeterministicReportIdenticalAcrossWorkerCounts) {
  const std::string serial_json = DeterministicReportJson(*serial_);
  for (const int workers : {4, 8}) {
    const auto parallel = Deployment::RunStudy(FaultedStudy(workers));
    EXPECT_EQ(serial_json, DeterministicReportJson(*parallel))
        << "deterministic report diverged at --workers " << workers;
  }
}

TEST_F(ObsDeterminismTest, VolatileReportStillCarriesDeterministicStrata) {
  // The full report differs run-to-run (wall clock), but its study section
  // and conservation identity are fixed.
  const auto report = home::MakeRunReport(*serial_, "test", true);
  EXPECT_EQ(report.seed, 20130417u);
  EXPECT_EQ(report.fault_seed, 777u);
  EXPECT_EQ(report.shards, serial_->shard_count());
  EXPECT_TRUE(report.conservation.holds());
  EXPECT_TRUE(report.include_volatile);
  EXPECT_GE(report.wall_total_s, 0.0);
}

}  // namespace
}  // namespace bismark
