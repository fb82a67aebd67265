#include <gtest/gtest.h>

#include <filesystem>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "collect/export.h"

namespace bismark::collect {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  ExportTest() : repo_(DatasetWindows::Paper()) {
    const auto& w = repo_.windows();
    repo_.add_heartbeat_run(
        HeartbeatRun{HomeId{1}, w.heartbeats.start, w.heartbeats.start + Hours(1)});
    repo_.add_uptime(UptimeRecord{HomeId{1}, w.uptime.start + Hours(1), Hours(1)});
    repo_.add_capacity(
        CapacityRecord{HomeId{1}, w.capacity.start + Hours(1), Mbps(20), Mbps(4)});
    DeviceCountRecord dc;
    dc.home = HomeId{1};
    dc.sampled = w.devices.start + Hours(1);
    dc.wired = 1;
    dc.wireless_24 = 3;
    repo_.add_device_count(dc);
    WifiScanRecord scan;
    scan.home = HomeId{1};
    scan.scanned = w.wifi.start + Hours(1);
    scan.band = wireless::Band::k2_4GHz;
    scan.channel = 11;
    scan.visible_aps = 12;
    repo_.add_wifi_scan(scan);
    TrafficFlowRecord flow;
    flow.home = HomeId{1};
    flow.first_packet = w.traffic.start + Hours(1);
    flow.last_packet = flow.first_packet + Minutes(5);
    flow.domain = "netflix.com";
    flow.bytes_down = MB(100);
    repo_.add_flow(std::move(flow));
  }
  DataRepository repo_;
};

TEST_F(ExportTest, EachExporterWritesHeaderAndRows) {
  std::ostringstream out;
  EXPECT_EQ(ExportHeartbeats(repo_, out), 1u);
  EXPECT_NE(out.str().find("run_start_ms"), std::string::npos);

  out.str("");
  EXPECT_EQ(ExportUptime(repo_, out), 1u);
  out.str("");
  EXPECT_EQ(ExportCapacity(repo_, out), 1u);
  EXPECT_NE(out.str().find("20.000"), std::string::npos);
  out.str("");
  EXPECT_EQ(ExportDevices(repo_, out), 1u);
  out.str("");
  EXPECT_EQ(ExportWifi(repo_, out), 1u);
  EXPECT_NE(out.str().find("2.4 GHz"), std::string::npos);
}

TEST_F(ExportTest, TrafficExportIsSeparateFromPublicSet) {
  std::ostringstream out;
  EXPECT_EQ(ExportTrafficFlows(repo_, out), 1u);
  EXPECT_NE(out.str().find("netflix.com"), std::string::npos);
}

TEST_F(ExportTest, PublicDatasetExcludesTraffic) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "bismark_export_test").string();
  std::filesystem::remove_all(dir);
  const std::size_t rows = ExportPublicDatasets(repo_, dir);
  EXPECT_EQ(rows, 5u);  // one row per public data set above
  // The five public files exist; no traffic file is written (Section 3.2:
  // everything but Traffic is released).
  EXPECT_TRUE(std::filesystem::exists(dir + "/heartbeats.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/uptime.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/capacity.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/devices.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/wifi.csv"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/traffic.csv"));
  std::filesystem::remove_all(dir);
}

TEST_F(ExportTest, EmptyRepositoryExportsHeadersOnly) {
  DataRepository empty(DatasetWindows::Paper());
  std::ostringstream out;
  EXPECT_EQ(ExportHeartbeats(empty, out), 0u);
  EXPECT_FALSE(out.str().empty());  // header still present
}

// Byte-level golden for the release format. These literals are the public
// contract of the released CSVs: any refactor of the export path must keep
// producing exactly these bytes for these rows.
TEST(ExportGoldenBytes, ReleaseViewsMatchHistoricalFormat) {
  const Interval all{TimePoint{0}, TimePoint{1'000'000'000}};
  DataRepository repo(DatasetWindows{all, all, all, all, all, all});
  repo.add(HeartbeatRun{HomeId{3}, TimePoint{60000}, TimePoint{240000}});
  repo.add(UptimeRecord{HomeId{4}, TimePoint{1000}, Seconds(4521.5)});
  repo.add(CapacityRecord{HomeId{5}, TimePoint{2000}, Mbps(19.5), Mbps(4.5)});
  repo.add(DeviceCountRecord{HomeId{6}, TimePoint{3000}, 1, 3, 2, 9, 6, 3});
  repo.add(WifiScanRecord{HomeId{7}, TimePoint{4000}, wireless::Band::k5GHz, 36, 12, 2});
  TrafficFlowRecord flow;
  flow.home = HomeId{8};
  flow.flow = net::FlowId{77};  // withheld by the release view
  flow.first_packet = TimePoint{5000};
  flow.last_packet = TimePoint{65000};
  flow.protocol = net::Protocol::kUdp;
  flow.dst_port = 443;
  flow.device_mac = net::MacAddress::FromParts(0x0017f2, 0xabcdef);
  flow.bytes_up = Bytes{1200};
  flow.bytes_down = Bytes{34000};
  flow.packets_up = 10;  // withheld by the release view
  flow.packets_down = 25;
  flow.domain = "cdn,example.com";
  flow.domain_anonymized = true;
  repo.add(std::move(flow));

  std::ostringstream out;
  ExportHeartbeats(repo, out);
  EXPECT_EQ(out.str(),
            "home,run_start_ms,run_end_ms,heartbeats\n"
            "3,60000,240000,3\n");

  out.str("");
  ExportUptime(repo, out);
  EXPECT_EQ(out.str(),
            "home,reported_ms,uptime_s\n"
            "4,1000,4521.500\n");

  out.str("");
  ExportCapacity(repo, out);
  EXPECT_EQ(out.str(),
            "home,measured_ms,down_mbps,up_mbps\n"
            "5,2000,19.500,4.500\n");

  out.str("");
  ExportDevices(repo, out);
  EXPECT_EQ(out.str(),
            "home,sampled_ms,wired,wireless_24,wireless_5,unique_total,unique_24,unique_5\n"
            "6,3000,1,3,2,9,6,3\n");

  out.str("");
  ExportWifi(repo, out);
  EXPECT_EQ(out.str(),
            "home,scanned_ms,band,channel,visible_aps,associated\n"
            "7,4000,5 GHz,36,12,2\n");

  out.str("");
  ExportTrafficFlows(repo, out);
  EXPECT_EQ(out.str(),
            "home,first_ms,last_ms,proto,dst_port,device_mac,bytes_up,bytes_down,domain,"
            "domain_anonymized\n"
            "8,5000,65000,udp,443,00:17:f2:ab:cd:ef,1200,34000,\"cdn,example.com\",1\n");
}

TEST(ExportGoldenBytes, FullFidelityViewUsesExactCodecs) {
  const Interval all{TimePoint{0}, TimePoint{1'000'000'000}};
  DataRepository repo(DatasetWindows{all, all, all, all, all, all});
  repo.add(CapacityRecord{HomeId{5}, TimePoint{2000}, Mbps(19.5), Mbps(4.5)});

  std::ostringstream out;
  ExportDatasetCsv<CapacityRecord>(repo, out);
  // %.17g keeps the exact double (19.5 Mbps = 19500000 bps exactly).
  EXPECT_EQ(out.str(),
            "home,measured_ms,down_bps,up_bps\n"
            "5,2000,19500000,4500000\n");

  // Every integer member type at the ends of its range: the decimal form
  // keeps the sign and every digit.
  constexpr int kIntMin = std::numeric_limits<int>::min();
  constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  repo.add(UptimeRecord{HomeId{kIntMin}, TimePoint{5}, Duration{kI64Min}});
  CgnEventRecord cgn;
  cgn.home = HomeId{kIntMin};
  cgn.when = TimePoint{kI64Min};
  cgn.cgn_id = kIntMin;
  cgn.port_block = kU64Max;
  cgn.translations_out = kU64Max;
  repo.add(cgn);
  TrafficFlowRecord flow;
  flow.home = HomeId{std::numeric_limits<int>::max()};
  flow.flow = net::FlowId{kU64Max};
  flow.first_packet = TimePoint{7};
  flow.last_packet = TimePoint{std::numeric_limits<std::int64_t>::max()};
  flow.dst_port = std::numeric_limits<std::uint16_t>::max();
  flow.bytes_up = Bytes{kI64Min};
  flow.packets_up = kU64Max;
  repo.add(flow);

  std::ostringstream uptime;
  ExportDatasetCsv<UptimeRecord>(repo, uptime);
  EXPECT_EQ(uptime.str(),
            "home,reported_ms,uptime_ms\n"
            "-2147483648,5,-9223372036854775808\n");
  std::ostringstream events;
  ExportDatasetCsv<CgnEventRecord>(repo, events);
  EXPECT_EQ(events.str(),
            CsvHeader<CgnEventRecord>() +
                "\n-2147483648,-9223372036854775808,-2147483648,18446744073709551615,0,0,0,0,"
                "18446744073709551615,0,0,0\n");
  std::ostringstream flows;
  ExportDatasetCsv<TrafficFlowRecord>(repo, flows);
  EXPECT_EQ(flows.str(),
            CsvHeader<TrafficFlowRecord>() +
                "\n2147483647,18446744073709551615,7,9223372036854775807,tcp,65535," +
                net::MacAddress().to_string() + ",-9223372036854775808,0,18446744073709551615,0,,0\n");
}

TEST(ExportGoldenBytes, HostileFieldsAreRfc4180Quoted) {
  const Interval all{TimePoint{0}, TimePoint{1'000'000'000}};
  DataRepository repo(DatasetWindows{all, all, all, all, all, all});
  DnsLogRecord dns;
  dns.home = HomeId{1};
  dns.when = TimePoint{5};
  dns.query = "a,\"b\"";
  repo.add(dns);
  std::ostringstream out;
  ExportDatasetCsv<DnsLogRecord>(repo, out);
  EXPECT_NE(out.str().find("\"a,\"\"b\"\"\""), std::string::npos) << out.str();
}

}  // namespace
}  // namespace bismark::collect
