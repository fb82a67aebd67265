#include <gtest/gtest.h>

#include "collect/repository.h"

namespace bismark::collect {
namespace {

TEST(DatasetWindowsTest, PaperDatesMatchTable2) {
  const auto w = DatasetWindows::Paper();
  EXPECT_EQ(w.heartbeats.start, MakeTime({2012, 10, 1}));
  EXPECT_EQ(w.heartbeats.end, MakeTime({2013, 4, 15}));
  EXPECT_EQ(w.uptime.start, MakeTime({2013, 3, 6}));
  EXPECT_EQ(w.wifi.start, MakeTime({2012, 11, 1}));
  EXPECT_EQ(w.wifi.end, MakeTime({2012, 11, 15}));
  EXPECT_EQ(w.traffic.start, MakeTime({2013, 4, 1}));
  EXPECT_EQ(w.traffic.end, MakeTime({2013, 4, 15}));
  // Nested windows: traffic/capacity inside heartbeats.
  EXPECT_GE(w.traffic.start, w.heartbeats.start);
  EXPECT_LE(w.traffic.end, w.heartbeats.end);
}

TEST(DatasetWindowsTest, CompressedKeepsStructure) {
  const TimePoint start = MakeTime({2012, 10, 1});
  const auto w = DatasetWindows::Compressed(start, 8);
  EXPECT_EQ(w.heartbeats.start, start);
  EXPECT_EQ((w.heartbeats.end - w.heartbeats.start).days(), 56.0);
  EXPECT_LE(w.uptime.start, w.uptime.end);
  EXPECT_GE(w.uptime.start, w.heartbeats.start);
  EXPECT_LE(w.traffic.end, w.heartbeats.end);
  EXPECT_EQ((w.wifi.end - w.wifi.start).days(), 14.0);
}

class RepositoryTest : public ::testing::Test {
 protected:
  RepositoryTest() : repo_(DatasetWindows::Paper()) {}
  DataRepository repo_;
  const DatasetWindows w_ = DatasetWindows::Paper();
};

TEST_F(RepositoryTest, RegisterAndFindHomes) {
  HomeInfo info;
  info.id = HomeId{7};
  info.country_code = "US";
  repo_.register_home(info);
  ASSERT_NE(repo_.find_home(HomeId{7}), nullptr);
  EXPECT_EQ(repo_.find_home(HomeId{7})->country_code, "US");
  EXPECT_EQ(repo_.find_home(HomeId{8}), nullptr);
}

TEST_F(RepositoryTest, HeartbeatRunsClippedToWindow) {
  // A run straddling the window start is trimmed, not dropped.
  repo_.add_heartbeat_run(
      HeartbeatRun{HomeId{1}, w_.heartbeats.start - Days(2), w_.heartbeats.start + Days(1)});
  ASSERT_EQ(repo_.heartbeat_runs().size(), 1u);
  EXPECT_EQ(repo_.heartbeat_runs()[0].start, w_.heartbeats.start);
  // A run entirely outside is dropped.
  repo_.add_heartbeat_run(
      HeartbeatRun{HomeId{1}, w_.heartbeats.end + Days(1), w_.heartbeats.end + Days(2)});
  EXPECT_EQ(repo_.heartbeat_runs().size(), 1u);
}

TEST_F(RepositoryTest, HeartbeatCountPerRun) {
  const HeartbeatRun run{HomeId{1}, w_.heartbeats.start, w_.heartbeats.start + Minutes(10)};
  EXPECT_EQ(run.heartbeat_count(), 10);
}

TEST_F(RepositoryTest, PointRecordsOutsideWindowDropped) {
  repo_.add_uptime(UptimeRecord{HomeId{1}, w_.uptime.start - Days(1), Hours(1)});
  repo_.add_uptime(UptimeRecord{HomeId{1}, w_.uptime.start + Days(1), Hours(1)});
  EXPECT_EQ(repo_.uptime().size(), 1u);

  repo_.add_capacity(CapacityRecord{HomeId{1}, w_.capacity.start + Days(1), Mbps(10), Mbps(1)});
  repo_.add_capacity(CapacityRecord{HomeId{1}, w_.capacity.end + Days(1), Mbps(10), Mbps(1)});
  EXPECT_EQ(repo_.capacity().size(), 1u);

  DeviceCountRecord dc;
  dc.home = HomeId{1};
  dc.sampled = w_.devices.start + Hours(5);
  repo_.add_device_count(dc);
  dc.sampled = w_.devices.end + Hours(5);
  repo_.add_device_count(dc);
  EXPECT_EQ(repo_.device_counts().size(), 1u);
}

TEST_F(RepositoryTest, PerHomeFilters) {
  for (int home = 0; home < 3; ++home) {
    for (int i = 0; i < home + 1; ++i) {
      const TimePoint start = w_.heartbeats.start + Hours(2 * i);
      repo_.add_heartbeat_run(HeartbeatRun{HomeId{home}, start, start + Hours(1)});
    }
  }
  EXPECT_EQ(repo_.heartbeat_runs_for(HomeId{0}).size(), 1u);
  EXPECT_EQ(repo_.heartbeat_runs_for(HomeId{1}).size(), 2u);
  const auto runs = repo_.heartbeat_runs_for(HomeId{2});
  ASSERT_EQ(runs.size(), 3u);
  for (const HeartbeatRun& run : runs) EXPECT_EQ(run.home, HomeId{2});
  EXPECT_EQ(runs[2].start, w_.heartbeats.start + Hours(4));
  EXPECT_TRUE(repo_.heartbeat_runs_for(HomeId{9}).empty());
}

TEST_F(RepositoryTest, CountsSummary) {
  repo_.add_heartbeat_run(
      HeartbeatRun{HomeId{1}, w_.heartbeats.start, w_.heartbeats.start + Days(1)});
  repo_.add_uptime(UptimeRecord{HomeId{1}, w_.uptime.start + Hours(1), Hours(1)});
  DnsLogRecord dns;
  dns.home = HomeId{1};
  dns.when = w_.traffic.start + Hours(1);
  repo_.add_dns(std::move(dns));
  const auto counts = repo_.counts();
  EXPECT_EQ(counts.heartbeat_runs, 1u);
  EXPECT_EQ(counts.uptime, 1u);
  EXPECT_EQ(counts.dns, 1u);
  EXPECT_EQ(counts.flows, 0u);
}

TEST_F(RepositoryTest, ThroughputWindowEnforced) {
  ThroughputMinute m;
  m.home = HomeId{1};
  m.minute_start = w_.traffic.start + Minutes(5);
  repo_.add_throughput_minute(m);
  m.minute_start = w_.traffic.end + Minutes(5);
  repo_.add_throughput_minute(m);
  EXPECT_EQ(repo_.throughput().size(), 1u);
}

TEST_F(RepositoryTest, TotalBytesHelper) {
  TrafficFlowRecord rec;
  rec.bytes_up = KB(10);
  rec.bytes_down = KB(30);
  EXPECT_EQ(rec.total_bytes(), KB(40));
}

}  // namespace
}  // namespace bismark::collect
