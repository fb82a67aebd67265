// The schema layer: one Schema<T> specialisation per data set is the only
// per-dataset definition in the system. These tests pin the derived pieces
// (kind names, variant order, headers, codecs) that committed artifacts
// and on-disk formats depend on.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "collect/binio.h"
#include "collect/schema.h"

namespace bismark::collect {
namespace {

TEST(SchemaTypelist, WireOrderIsStable) {
  // These indices key the spool drop ledger, the obs counter labels, and
  // the snapshot kind order. Appending is fine; reordering never is.
  EXPECT_EQ(kRecordIndexOf<HeartbeatRun>, 0u);
  EXPECT_EQ(kRecordIndexOf<UptimeRecord>, 1u);
  EXPECT_EQ(kRecordIndexOf<CapacityRecord>, 2u);
  EXPECT_EQ(kRecordIndexOf<DeviceCountRecord>, 3u);
  EXPECT_EQ(kRecordIndexOf<WifiScanRecord>, 4u);
  EXPECT_EQ(kRecordIndexOf<TrafficFlowRecord>, 5u);
  EXPECT_EQ(kRecordIndexOf<ThroughputMinute>, 6u);
  EXPECT_EQ(kRecordIndexOf<DnsLogRecord>, 7u);
  EXPECT_EQ(kRecordIndexOf<DeviceTrafficRecord>, 8u);
  EXPECT_EQ(kRecordIndexOf<CgnEventRecord>, kRecordKinds - 1);
  EXPECT_EQ(kRecordKinds, 10u);
}

TEST(SchemaTypelist, KindNamesMatchCommittedLabels) {
  // The metric series bismark_spool_dropped_total{kind="..."} and the BENCH
  // tables carry these exact strings.
  EXPECT_STREQ(RecordKindName(0), "heartbeat_run");
  EXPECT_STREQ(RecordKindName(1), "uptime");
  EXPECT_STREQ(RecordKindName(2), "capacity");
  EXPECT_STREQ(RecordKindName(3), "device_count");
  EXPECT_STREQ(RecordKindName(4), "wifi_scan");
  EXPECT_STREQ(RecordKindName(5), "traffic_flow");
  EXPECT_STREQ(RecordKindName(6), "throughput");
  EXPECT_STREQ(RecordKindName(7), "dns");
  EXPECT_STREQ(RecordKindName(8), "device_traffic");
  EXPECT_STREQ(RecordKindName(9), "cgn_event");
  EXPECT_STREQ(RecordKindName(kRecordKinds), "unknown");
}

TEST(SchemaTypelist, KindNamesAndCsvFilesAreDistinct) {
  std::set<std::string> names;
  std::set<std::string> files;
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    names.insert(Schema<T>::kKindName);
    files.insert(Schema<T>::kCsvFile);
  });
  EXPECT_EQ(names.size(), kRecordKinds);
  EXPECT_EQ(files.size(), kRecordKinds);
}

TEST(SchemaTypelist, RecordTimeDispatchesThroughTheVariant) {
  Record r = UptimeRecord{HomeId{4}, TimePoint{123456}, Hours(2)};
  EXPECT_EQ(RecordTime(r).ms, 123456);
  r = DeviceTrafficRecord{};  // registry rows are windowless
  EXPECT_EQ(RecordTime(r).ms, 0);
}

TEST(SchemaHeaders, FullFidelityHeadersComeFromFieldLists) {
  EXPECT_EQ(CsvHeader<HeartbeatRun>(), "home,run_start_ms,run_end_ms");
  EXPECT_EQ(CsvHeader<CapacityRecord>(), "home,measured_ms,down_bps,up_bps");
  EXPECT_EQ(CsvHeader<TrafficFlowRecord>(),
            "home,flow,first_ms,last_ms,proto,dst_port,device_mac,bytes_up,bytes_down,"
            "packets_up,packets_down,domain,domain_anonymized");
}

TEST(SchemaCodecs, ExactDoubleRoundTrip) {
  // The %.17g encoding must reproduce any double bit-for-bit.
  for (const double v : {0.1, 1.0 / 3.0, 3.875e9, -0.0, 12345678.901234567}) {
    double back = 0.0;
    ASSERT_TRUE(CsvDecode(CsvEncode(v), back));
    EXPECT_EQ(back, v);
  }
}

TEST(SchemaCodecs, EnumsRoundTripByName) {
  net::Protocol p{};
  ASSERT_TRUE(CsvDecode(CsvEncode(net::Protocol::kUdp), p));
  EXPECT_EQ(p, net::Protocol::kUdp);
  EXPECT_FALSE(CsvDecode("quic", p));

  wireless::Band b{};
  ASSERT_TRUE(CsvDecode(CsvEncode(wireless::Band::k5GHz), b));
  EXPECT_EQ(b, wireless::Band::k5GHz);
  EXPECT_FALSE(CsvDecode("60 GHz", b));

  net::VendorClass vc{};
  ASSERT_TRUE(CsvDecode(CsvEncode(net::VendorClass::kUnknown), vc));
  EXPECT_EQ(vc, net::VendorClass::kUnknown);
}

TEST(SchemaCodecs, RejectsOutOfRangeAndTrailingGarbage) {
  std::uint16_t port = 0;
  EXPECT_FALSE(CsvDecode(std::string("65536"), port));  // > 0xffff
  EXPECT_TRUE(CsvDecode(std::string("65535"), port));
  int n = 0;
  EXPECT_FALSE(CsvDecode(std::string("12x"), n));
  bool flag = false;
  EXPECT_FALSE(CsvDecode(std::string("true"), flag));  // only "1"/"0"
}

TEST(SchemaAdmission, HeartbeatRunsClipToTheWindow) {
  DatasetWindows w{};
  w.heartbeats = {TimePoint{1000}, TimePoint{5000}};
  HeartbeatRun run{HomeId{1}, TimePoint{0}, TimePoint{9000}};
  ASSERT_TRUE(Schema<HeartbeatRun>::Admit(w, run));
  EXPECT_EQ(run.start.ms, 1000);
  EXPECT_EQ(run.end.ms, 5000);

  HeartbeatRun outside{HomeId{1}, TimePoint{6000}, TimePoint{9000}};
  EXPECT_FALSE(Schema<HeartbeatRun>::Admit(w, outside));
}

TEST(SchemaAdmission, PointRecordsUseContainsAndRegistryRowsAlwaysPass) {
  DatasetWindows w{};
  w.uptime = {TimePoint{1000}, TimePoint{5000}};
  const UptimeRecord in{HomeId{1}, TimePoint{2000}, Hours(1)};
  const UptimeRecord out{HomeId{1}, TimePoint{5000}, Hours(1)};  // half-open
  EXPECT_TRUE(Schema<UptimeRecord>::Admit(w, in));
  EXPECT_FALSE(Schema<UptimeRecord>::Admit(w, out));
  EXPECT_TRUE(Schema<DeviceTrafficRecord>::Admit(w, DeviceTrafficRecord{}));
}

TEST(SchemaSortKeys, CanonicalOrderIsTimeThenHome) {
  const UptimeRecord a{HomeId{9}, TimePoint{100}, Hours(1)};
  const UptimeRecord b{HomeId{1}, TimePoint{200}, Hours(1)};
  EXPECT_LT(Schema<UptimeRecord>::SortKey(a), Schema<UptimeRecord>::SortKey(b));
  // Same time: the home id breaks the tie.
  const UptimeRecord c{HomeId{2}, TimePoint{100}, Hours(1)};
  EXPECT_LT(Schema<UptimeRecord>::SortKey(a.home.value < c.home.value ? a : c),
            Schema<UptimeRecord>::SortKey(a.home.value < c.home.value ? c : a));
}

}  // namespace
}  // namespace bismark::collect
