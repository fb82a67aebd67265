#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "analysis/downtime.h"
#include "collect/export.h"
#include "collect/import.h"
#include "home/deployment.h"

namespace bismark::collect {
namespace {

TEST(ParseCsvLineTest, PlainFields) {
  const auto f = ParseCsvLine("a,b,c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(ParseCsvLineTest, QuotedFieldsAndEscapes) {
  const auto f = ParseCsvLine("\"has,comma\",plain,\"has\"\"quote\"");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "has,comma");
  EXPECT_EQ(f[1], "plain");
  EXPECT_EQ(f[2], "has\"quote");
}

TEST(ParseCsvLineTest, EmptyFields) {
  const auto f = ParseCsvLine(",,");
  ASSERT_EQ(f.size(), 3u);
  for (const auto& field : f) EXPECT_TRUE(field.empty());
}

TEST(ParseCsvLineTest, QuotedFieldWithEmbeddedNewline) {
  // ReadCsvRecord joins the physical lines; the parser then sees one
  // logical record with a literal newline inside the quoted field.
  const auto f = ParseCsvLine("a,\"two\nlines\",c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[1], "two\nlines");
}

TEST(ParseCsvLineTest, AdjacentQuotedAndBareText) {
  const auto f = ParseCsvLine("\"a\"b,\"\",x\"y\"");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "ab");  // RFC 4180 doesn't allow this; we concatenate
  EXPECT_EQ(f[1], "");
  EXPECT_EQ(f[2], "xy");
}

TEST(ParseCsvLineTest, OnlyDoubledQuotesInsideQuotes) {
  const auto f = ParseCsvLine("\"\"\"quoted\"\"\"");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0], "\"quoted\"");
}

TEST(ReadCsvRecordTest, StripsTrailingCarriageReturn) {
  std::istringstream in("a,b\r\nc,d\r\n");
  std::string record;
  ASSERT_TRUE(ReadCsvRecord(in, record));
  EXPECT_EQ(record, "a,b");
  ASSERT_TRUE(ReadCsvRecord(in, record));
  EXPECT_EQ(record, "c,d");
  EXPECT_FALSE(ReadCsvRecord(in, record));
}

TEST(ReadCsvRecordTest, JoinsQuotedMultiLineFields) {
  // One logical record spanning three physical lines; CRLF inside the
  // quoted field is normalised to LF (we strip the CR per physical line).
  std::istringstream in("a,\"first\r\nsecond\nthird\",z\nnext,row\n");
  std::string record;
  ASSERT_TRUE(ReadCsvRecord(in, record));
  EXPECT_EQ(record, "a,\"first\nsecond\nthird\",z");
  const auto f = ParseCsvLine(record);
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[1], "first\nsecond\nthird");
  ASSERT_TRUE(ReadCsvRecord(in, record));
  EXPECT_EQ(record, "next,row");
}

TEST(ReadCsvRecordTest, UnterminatedQuoteConsumesToEof) {
  std::istringstream in("a,\"open\nstill open");
  std::string record;
  ASSERT_TRUE(ReadCsvRecord(in, record));
  EXPECT_EQ(record, "a,\"open\nstill open");
  EXPECT_FALSE(ReadCsvRecord(in, record));
}

TEST(ReadCsvRecordTest, CrlfReleaseFileImportsCleanly) {
  // A release CSV saved with Windows line endings must import unchanged.
  std::string csv = "home,reported_ms,uptime_s\r\n1,1000,3600.000\r\n2,2000,7200.000\r\n";
  std::istringstream in(csv);
  ImportReport report;
  DataRepository repo(DatasetWindows{
      {}, {TimePoint{0}, TimePoint{1000000}}, {}, {}, {}, {}});
  ImportUptime(repo, in, report);
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_EQ(report.uptime(), 2u);
  ASSERT_EQ(repo.uptime().size(), 2u);
  EXPECT_EQ(repo.uptime()[1].uptime, Seconds(7200));
}

class ImportTest : public ::testing::Test {
 protected:
  ImportTest() : source_(DatasetWindows::Paper()), target_(DatasetWindows::Paper()) {
    const auto& w = source_.windows();
    // Populate the source with a couple of rows in each public data set.
    source_.add_heartbeat_run(
        {HomeId{1}, w.heartbeats.start, w.heartbeats.start + Days(3)});
    source_.add_heartbeat_run(
        {HomeId{1}, w.heartbeats.start + Days(3) + Hours(2), w.heartbeats.end});
    source_.add_heartbeat_run({HomeId{2}, w.heartbeats.start, w.heartbeats.end});
    source_.add_uptime({HomeId{1}, w.uptime.start + Hours(12), Hours(100)});
    source_.add_capacity({HomeId{1}, w.capacity.start + Hours(1), Mbps(20.5), Mbps(4.25)});
    DeviceCountRecord dc;
    dc.home = HomeId{2};
    dc.sampled = w.devices.start + Hours(3);
    dc.wired = 1;
    dc.wireless_24 = 4;
    dc.wireless_5 = 2;
    dc.unique_total = 9;
    dc.unique_24 = 6;
    dc.unique_5 = 3;
    source_.add_device_count(dc);
    WifiScanRecord scan;
    scan.home = HomeId{2};
    scan.scanned = w.wifi.start + Hours(1);
    scan.band = wireless::Band::k5GHz;
    scan.channel = 36;
    scan.visible_aps = 3;
    scan.associated_clients = 1;
    source_.add_wifi_scan(scan);
  }

  DataRepository source_;
  DataRepository target_;
};

TEST_F(ImportTest, RoundTripThroughStreams) {
  ImportReport report;
  {
    std::stringstream s;
    ExportHeartbeats(source_, s);
    ImportHeartbeats(target_, s, report);
  }
  {
    std::stringstream s;
    ExportUptime(source_, s);
    ImportUptime(target_, s, report);
  }
  {
    std::stringstream s;
    ExportCapacity(source_, s);
    ImportCapacity(target_, s, report);
  }
  {
    std::stringstream s;
    ExportDevices(source_, s);
    ImportDevices(target_, s, report);
  }
  {
    std::stringstream s;
    ExportWifi(source_, s);
    ImportWifi(target_, s, report);
  }
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_EQ(report.heartbeat_runs(), 3u);

  // Heartbeat runs identical.
  ASSERT_EQ(target_.heartbeat_runs().size(), source_.heartbeat_runs().size());
  for (std::size_t i = 0; i < source_.heartbeat_runs().size(); ++i) {
    EXPECT_EQ(target_.heartbeat_runs()[i].start, source_.heartbeat_runs()[i].start);
    EXPECT_EQ(target_.heartbeat_runs()[i].end, source_.heartbeat_runs()[i].end);
  }
  // Capacity round-trips to CSV precision (3 decimals of Mbps).
  ASSERT_EQ(target_.capacity().size(), 1u);
  EXPECT_NEAR(target_.capacity()[0].downstream.mbps(), 20.5, 1e-3);
  EXPECT_NEAR(target_.capacity()[0].upstream.mbps(), 4.25, 1e-3);
  // Device census fields all survive.
  ASSERT_EQ(target_.device_counts().size(), 1u);
  EXPECT_EQ(target_.device_counts()[0].unique_total, 9);
  EXPECT_EQ(target_.device_counts()[0].unique_5, 3);
  // WiFi band decoded.
  ASSERT_EQ(target_.wifi_scans().size(), 1u);
  EXPECT_EQ(target_.wifi_scans()[0].band, wireless::Band::k5GHz);
}

TEST_F(ImportTest, AnalysisIdenticalOnImportedData) {
  // The point of the release: downstream analysis must not care whether it
  // runs on live or re-imported data.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "bismark_import_roundtrip").string();
  std::filesystem::remove_all(dir);
  ExportPublicDatasets(source_, dir);

  // Consumers must register home metadata themselves (not in the release).
  for (int id : {1, 2}) {
    HomeInfo info;
    info.id = HomeId{id};
    info.country_code = "US";
    info.developed = true;
    target_.register_home(info);
    // Mirror registration into the source for a like-for-like comparison.
  }
  DataRepository source_with_homes(DatasetWindows::Paper());
  for (const auto& run : source_.heartbeat_runs()) source_with_homes.add_heartbeat_run(run);
  for (int id : {1, 2}) {
    HomeInfo info;
    info.id = HomeId{id};
    info.country_code = "US";
    info.developed = true;
    source_with_homes.register_home(info);
  }

  const auto report = ImportPublicDatasets(target_, dir);
  EXPECT_TRUE(report.ok());

  const auto original = analysis::AnalyzeAvailability(source_with_homes, {Minutes(10), 1.0});
  const auto imported = analysis::AnalyzeAvailability(target_, {Minutes(10), 1.0});
  ASSERT_EQ(original.size(), imported.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i].downtimes, imported[i].downtimes);
    EXPECT_DOUBLE_EQ(original[i].online_days, imported[i].online_days);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ImportTest, MissingDirectoryReportsErrors) {
  const auto report = ImportPublicDatasets(target_, "/nonexistent/bismark-release");
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.total_rows(), 0u);
  EXPECT_EQ(report.errors.size(), 5u);  // one per file
}

TEST_F(ImportTest, MalformedRowsSkippedAndReported) {
  std::stringstream s;
  s << "home,run_start_ms,run_end_ms,heartbeats\n";
  s << "1,1000,2000,1\n";          // but end-start is 1000ms => fine
  s << "2,not-a-number,2000,1\n";  // malformed
  s << "3,5000,4000,1\n";          // end <= start
  s << "4294967297,1000,2000,1\n";   // home id above int: not home 1
  s << "-4294967295,1000,2000,1\n";  // home id below int: not home 1
  ImportReport report;
  const Interval window{TimePoint{0}, TimePoint{1000000}};
  DataRepository repo(DatasetWindows{window, window, window, {}, {}, {}});
  ImportHeartbeats(repo, s, report);
  EXPECT_EQ(report.heartbeat_runs(), 1u);
  EXPECT_EQ(repo.heartbeat_runs().size(), 1u);
  EXPECT_EQ(report.errors.size(), 4u);

  // The lossy columns check their own values: a negative uptime and a
  // non-numeric capacity are malformed, not clamped or zeroed.
  std::stringstream uptime;
  uptime << "home,reported_ms,uptime_s\n";
  uptime << "1,1000,3600.000\n";
  uptime << "2,2000,-1.000\n";  // negative uptime
  ImportUptime(repo, uptime, report);
  EXPECT_EQ(report.uptime(), 1u);
  EXPECT_EQ(report.errors.size(), 5u);

  std::stringstream capacity;
  capacity << "home,measured_ms,down_mbps,up_mbps\n";
  capacity << "1,1000,20.500,4.250\n";
  capacity << "2,2000,fast,4.250\n";  // non-numeric down_mbps
  ImportCapacity(repo, capacity, report);
  EXPECT_EQ(report.capacity(), 1u);
  ASSERT_EQ(report.errors.size(), 6u);
  EXPECT_EQ(report.errors[2], "heartbeats.csv:5: malformed row");
  EXPECT_EQ(report.errors[3], "heartbeats.csv:6: malformed row");
  EXPECT_EQ(report.errors[4], "uptime.csv:3: malformed row");
  EXPECT_EQ(report.errors[5], "capacity.csv:3: malformed row");
}

TEST_F(ImportTest, RowsOutsideWindowsSkippedNotCounted) {
  // The repository's windows drop rows like any ingest; the report counts
  // only the rows kept and names the dropped ones once for the file.
  std::stringstream s;
  s << "home,reported_ms,uptime_s\n";
  s << "1,1000,3600.000\n";
  s << "2,5000,3600.000\n";  // outside the uptime window
  s << "3,6000,3600.000\n";  // outside the uptime window
  ImportReport report;
  DataRepository repo(DatasetWindows{{}, {TimePoint{0}, TimePoint{2000}}, {}, {}, {}, {}});
  EXPECT_EQ(ImportUptime(repo, s, report), 1u);
  EXPECT_EQ(report.uptime(), 1u);
  EXPECT_EQ(repo.uptime().size(), 1u);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0],
            "uptime.csv:0: skipped 2 rows outside the repository's collection windows");
}

TEST_F(ImportTest, WrongHeaderRejected) {
  std::stringstream s;
  s << "totally,wrong,header\n1,2,3\n";
  ImportReport report;
  ImportUptime(target_, s, report);
  EXPECT_EQ(report.uptime(), 0u);
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors[0].find("unexpected header"), std::string::npos);
}


TEST(ImportDeploymentScaleTest, FullStudyReleaseRoundTrips) {
  // Export a whole (compressed) study's public data sets and re-import:
  // the availability analysis must be bit-identical, which is the contract
  // the paper's public release implicitly makes with external researchers.
  home::DeploymentOptions options;
  options.seed = 31337;
  options.windows = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 4);
  options.run_traffic = false;
  const auto study = home::Deployment::RunStudy(options);
  const auto& source = study->repository();

  const std::string dir =
      (std::filesystem::temp_directory_path() / "bismark_fullstudy_roundtrip").string();
  std::filesystem::remove_all(dir);
  ExportPublicDatasets(source, dir);

  DataRepository imported(options.windows);
  for (const auto& info : source.homes()) imported.register_home(info);
  const auto report = ImportPublicDatasets(imported, dir);
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_EQ(report.heartbeat_runs(), source.heartbeat_runs().size());
  EXPECT_EQ(report.device_counts(), source.device_counts().size());
  EXPECT_EQ(report.wifi_scans(), source.wifi_scans().size());

  const auto original = analysis::AnalyzeAvailability(source, {Minutes(10), 10.0});
  const auto roundtrip = analysis::AnalyzeAvailability(imported, {Minutes(10), 10.0});
  ASSERT_EQ(original.size(), roundtrip.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i].home, roundtrip[i].home);
    EXPECT_EQ(original[i].downtimes, roundtrip[i].downtimes);
    EXPECT_DOUBLE_EQ(original[i].online_days, roundtrip[i].online_days);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bismark::collect
