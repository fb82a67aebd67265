#include <filesystem>

#include <gtest/gtest.h>

#include "../collect/spill_fixture.h"
#include "analysis/collection_artifacts.h"
#include "home/deployment.h"

namespace bismark::analysis {
namespace {

using collect::HeartbeatRun;
using collect::HomeId;

const TimePoint t0 = MakeTime({2012, 10, 1});

class ArtifactDetectorTest : public ::testing::Test {
 protected:
  ArtifactDetectorTest() : repo_(collect::DatasetWindows::Compressed(t0, 4)) {}

  void AddHome(int id, const IntervalSet& online) {
    collect::HomeInfo info;
    info.id = HomeId{id};
    info.country_code = "US";
    info.developed = true;
    repo_.register_home(info);
    for (const auto& iv : online.intervals()) {
      repo_.add_heartbeat_run(HeartbeatRun{HomeId{id}, iv.start, iv.end});
    }
  }

  IntervalSet WholeWindowExcept(const std::vector<Interval>& gaps) {
    const Interval w = repo_.windows().heartbeats;
    IntervalSet off;
    for (const auto& g : gaps) off.add(g);
    IntervalSet on;
    TimePoint cursor = w.start;
    const IntervalSet clipped = off.clipped(w.start, w.end);
    for (const auto& gap : clipped.intervals()) {
      if (gap.start > cursor) on.add(cursor, gap.start);
      cursor = gap.end;
    }
    if (cursor < w.end) on.add(cursor, w.end);
    return on;
  }

  collect::DataRepository repo_;
};

TEST_F(ArtifactDetectorTest, FindsSimultaneousGap) {
  // Five homes, all silent for the same two hours: a collector outage.
  const Interval outage{t0 + Days(10), t0 + Days(10) + Hours(2)};
  for (int id = 0; id < 5; ++id) AddHome(id, WholeWindowExcept({outage}));
  const auto report = DetectCollectionOutages(repo_);
  EXPECT_EQ(report.reporting_homes, 5);
  ASSERT_EQ(report.outages.size(), 1u);
  // Detection resolution is 5 minutes; allow that slack on each edge.
  EXPECT_NEAR(static_cast<double>(report.outages.intervals()[0].start.ms),
              static_cast<double>(outage.start.ms), Minutes(5).ms);
  EXPECT_NEAR(static_cast<double>(report.outages.total().ms),
              static_cast<double>(Hours(2).ms), Minutes(10).ms);
}

TEST_F(ArtifactDetectorTest, IndependentGapsNotFlagged) {
  // Five homes with *different* two-hour gaps: no moment has most homes
  // silent, so nothing is a collection artifact.
  for (int id = 0; id < 5; ++id) {
    AddHome(id, WholeWindowExcept({{t0 + Days(2 + 3 * id), t0 + Days(2 + 3 * id) + Hours(2)}}));
  }
  const auto report = DetectCollectionOutages(repo_);
  EXPECT_TRUE(report.outages.empty());
}

TEST_F(ArtifactDetectorTest, TooFewHomesNeverSaturates) {
  // With fewer than 3 reporting homes the detector refuses to conclude.
  const Interval outage{t0 + Days(5), t0 + Days(5) + Hours(3)};
  AddHome(0, WholeWindowExcept({outage}));
  AddHome(1, WholeWindowExcept({outage}));
  EXPECT_TRUE(DetectCollectionOutages(repo_).outages.empty());
}

TEST_F(ArtifactDetectorTest, CorrectionRemovesArtifactDowntimes) {
  const Interval outage{t0 + Days(10), t0 + Days(10) + Hours(2)};
  // Home 0 also has a genuine outage of its own.
  const Interval genuine{t0 + Days(20), t0 + Days(20) + Hours(1)};
  AddHome(0, WholeWindowExcept({outage, genuine}));
  for (int id = 1; id < 6; ++id) AddHome(id, WholeWindowExcept({outage}));

  const auto raw = AnalyzeAvailability(repo_, {Minutes(10), 1.0});
  const auto artifacts = DetectCollectionOutages(repo_);
  const auto corrected = AnalyzeAvailabilityCorrected(repo_, artifacts, {Minutes(10), 1.0});
  ASSERT_EQ(raw.size(), corrected.size());

  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i].home.value == 0) {
      EXPECT_EQ(raw[i].downtimes, 2);
      EXPECT_EQ(corrected[i].downtimes, 1);  // only the genuine one remains
      EXPECT_NEAR(corrected[i].durations_s[0], 3600.0, 1.0);
    } else {
      EXPECT_EQ(raw[i].downtimes, 1);
      EXPECT_EQ(corrected[i].downtimes, 0);
      // The silent time is credited back as online.
      EXPECT_GT(corrected[i].online_days, raw[i].online_days);
    }
  }
}

TEST_F(ArtifactDetectorTest, EmptyRepositorySafe) {
  const auto report = DetectCollectionOutages(repo_);
  EXPECT_EQ(report.reporting_homes, 0);
  EXPECT_TRUE(report.outages.empty());
}

TEST(ArtifactEndToEndTest, DeploymentCollectorOutagesDetectedAndCorrected) {
  home::DeploymentOptions options;
  options.seed = 7;
  options.windows = collect::DatasetWindows::Compressed(t0, 6);
  options.run_traffic = false;
  options.collector_outages_per_month = 2.0;
  options.collector_outage_mean = Hours(4);
  const auto study = home::Deployment::RunStudy(options);
  const auto& repo = study->repository();

  ASSERT_FALSE(study->collector_outages().empty());

  // The detector should recover most of the true collector downtime.
  const auto report = DetectCollectionOutages(repo);
  const IntervalSet truth =
      study->collector_outages().clipped(repo.windows().heartbeats.start,
                                         repo.windows().heartbeats.end);
  ASSERT_FALSE(report.outages.empty());
  const Duration overlap_total = report.outages.intersect(truth).total();
  EXPECT_GT(static_cast<double>(overlap_total.ms) / static_cast<double>(truth.total().ms),
            0.7);

  // Correction strictly reduces measured downtime counts overall.
  const auto raw = AnalyzeAvailability(repo, {Minutes(10), 10.0});
  const auto corrected = AnalyzeAvailabilityCorrected(repo, report, {Minutes(10), 10.0});
  long long raw_total = 0, corrected_total = 0;
  for (const auto& h : raw) raw_total += h.downtimes;
  for (const auto& h : corrected) corrected_total += h.downtimes;
  EXPECT_LT(corrected_total, raw_total);
}

// The corrected analysis groups every home's runs in one read: on a
// spilled repository that is one merge of the Heartbeats data set, not one
// per home, and the output is the in-RAM output.
TEST(ArtifactSpillTest, CorrectionMergesHeartbeatsOnce) {
  namespace fixture = collect::spill_fixture;
  const auto windows = collect::DatasetWindows::Compressed(t0, 2);
  const auto dir = fixture::FreshSpillDir("artifacts");
  const auto ram = fixture::BuildInRam(windows);
  const auto spilled = fixture::BuildSpilled(windows, dir / "spill");
  const CollectionOutageReport outages = DetectCollectionOutages(*ram);
  const DowntimeOptions options{Minutes(10), 0.0};
  const auto corrected = AnalyzeAvailabilityCorrected(*spilled, outages, options);
  // One merge reads each Heartbeats section, frames included, exactly once.
  std::uint64_t heartbeat_bytes = 0;
  for (const collect::SectionRef& ref :
       spilled->spill()->sections_of_kind(collect::kRecordIndexOf<HeartbeatRun>)) {
    heartbeat_bytes += collect::kSectionHeaderBytes + ref.bytes + collect::kSectionFooterBytes;
  }
  ASSERT_GT(heartbeat_bytes, 0u);
  EXPECT_EQ(spilled->spill()->bytes_read().load(), heartbeat_bytes);

  const auto want = AnalyzeAvailabilityCorrected(*ram, outages, options);
  ASSERT_EQ(want.size(), static_cast<std::size_t>(fixture::kHomes));
  ASSERT_EQ(corrected.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(corrected[i].home, want[i].home);
    EXPECT_EQ(corrected[i].downtimes, want[i].downtimes);
    EXPECT_EQ(corrected[i].durations_s, want[i].durations_s);
    EXPECT_EQ(corrected[i].online_days, want[i].online_days);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bismark::analysis
