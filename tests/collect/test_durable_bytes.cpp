// Byte pins for every durable format: each case encodes fixed inputs through
// the production writer and compares the bytes with values recorded once.
// A layout edit made identically on the writer and the reader passes every
// round-trip test, yet orphans existing spill directories and snapshots;
// these cases fail on it. Never re-record an expected value to make a
// refactor pass: a changed byte here is a format change, and needs a
// version bump. The sketch and fleet-summary bytes are no longer stored
// anywhere, but tests compare sketches and summaries by them, so they stay
// pinned too.
//
// Small blobs are pinned as literal hex, larger ones as their byte count
// plus a 64-bit FNV-1a hash. No case runs a simulation, so no expected
// value depends on floating-point behaviour beyond exactly representable
// inputs.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/fleet.h"
#include "collect/column_snapshot.h"
#include "collect/manifest.h"
#include "collect/repository.h"
#include "collect/spill.h"
#include "core/stats.h"
#include "home/resume.h"

namespace bismark::collect {
namespace {

namespace fs = std::filesystem;

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

/// "<byte count> <FNV-1a 64 in hex>": the pin of a blob too long for hex.
/// Not a CRC32C: manifest records and the snapshot meta file end in their
/// own CRC32C, and a CRC over bytes followed by their CRC is a constant
/// (0x48674bc7 for CRC32C), so it would miss any same-length change there.
std::string Digest(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  std::ostringstream os;
  os << bytes.size() << ' ' << std::hex << std::setw(16) << std::setfill('0') << hash;
  return os.str();
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

HomeInfo PinnedHome(int id, const char* country) {
  HomeInfo home;
  home.id = HomeId{id};
  home.country_code = country;
  home.developed = id % 2 == 0;
  home.utc_offset = Hours(-5);
  home.reports_uptime = true;
  home.reports_devices = false;
  home.reports_wifi = true;
  home.consented_traffic = true;
  home.has_always_wired = false;
  home.has_always_wireless = true;
  home.true_down_mbps = 12.5;
  home.true_up_mbps = 0.75;
  home.power_mode = 2;
  return home;
}

class DurableFormatBytes : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process dir: ctest runs suite cases as concurrent processes.
    dir_ = fs::temp_directory_path() / ("bsmk-durable-bytes-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(DurableFormatBytes, SpillSectionOfTwoHeartbeatRuns) {
  DataRepository repo(DatasetWindows::Paper());
  SpillConfig cfg;
  cfg.dir = dir_.string();
  cfg.budget_bytes = 1 << 20;
  cfg.workers = 1;
  repo.enable_spill(cfg);
  IngestBatch batch = repo.make_batch();
  batch.attach_spill(repo.spill(), /*shard=*/3, /*worker=*/0);
  const TimePoint t0 = MakeTime({2012, 11, 2}, 6);
  batch.add_heartbeat_run(HeartbeatRun{HomeId{7}, t0 + Hours(2), t0 + Hours(9)});
  batch.add_heartbeat_run(HeartbeatRun{HomeId{5}, t0, t0 + Minutes(90)});
  repo.commit(std::move(batch));
  repo.finalize_deterministic_order();

  // Header (magic "BSG3", kind 0, shard 3, run 0), one stripe of the two
  // rows in sort order (u32 row count, then the home, start and end
  // columns), footer (rows, body bytes, CRC32C, end magic "END3").
  EXPECT_EQ(Hex(ReadFile(dir_ / "seg-g0-w0.bsmkseg")),
            "4253473300000000030000000000000002000000050000000700000000"
            "5fb4bf3a010000003c22c03a010000c0c406c03a01000080c1a2c13a0100"
            "0002000000000000002c0000000000000058e5e49f454e4433");
}

TEST_F(DurableFormatBytes, ManifestWithEveryRecordType) {
  fs::create_directories(dir_);
  const fs::path path = dir_ / "manifest.bsmkman";
  {
    ManifestWriter writer;
    writer.open(path.string(), /*fresh=*/true);
    ManifestConfig cfg;
    cfg.schema_fingerprint = 0x0123456789abcdefull;
    cfg.budget_bytes = 64ull << 20;
    cfg.generation = 2;
    cfg.shard_count = 17;
    cfg.options_blob = "opaque-options";
    writer.config(cfg);
    writer.file(0, "seg-g2-w0.bsmkseg");
    SectionRef ref;
    ref.file = 0;
    ref.offset = 0x1122334455ull;
    ref.bytes = 4096;
    ref.rows = 33;
    ref.shard = 9;
    ref.run = 5;
    ref.kind = 6;
    ref.crc = 0xcafef00du;
    writer.section(ref);
    writer.shard_done(9, {PinnedHome(41, "US"), PinnedHome(42, "ZA")});
  }
  // Magic "BSMKMAN4", then one record of each type: u32 length, u8 type
  // and payload, u32 CRC32C.
  EXPECT_EQ(Hex(ReadFile(path)),
            "42534d4b4d414e342b00000001efcdab89674523010000000400000000020000"
            "00110000000e0000006f70617175652d6f7074696f6e7340480c731a00000002"
            "00000000110000007365672d67322d77302e62736d6b7365671e92f54e2d0000"
            "0003060000000000000055443322110000000010000000000000210000000000"
            "000009000000050000000df0fecafafdcbb36300000004090000000200000029"
            "000000020000005553008057edfeffffffff0100010100010000000000002940"
            "000000000000e83f020000002a000000020000005a41018057edfeffffffff01"
            "00010100010000000000002940000000000000e83f020000008cbf7039");
}

TEST_F(DurableFormatBytes, ResumeOptionsBlobWithEveryFieldSet) {
  home::DeploymentOptions o;
  o.seed = 20131023;
  o.fault_seed = 0xfeedfacecafebeefull;
  o.windows = DatasetWindows::Compressed(MakeTime({2013, 1, 7}), 3);
  o.heartbeat.period = Seconds(30);
  o.heartbeat.loss_prob = 0.125;
  o.heartbeat.downtime_threshold = Minutes(15);
  o.traffic_homes = 7;
  o.bufferbloat_homes = 3;
  o.run_traffic = false;
  o.roster_scale = 0.5;
  o.homes = 1000;
  o.churn_homes = 11;
  o.collector_outages_per_month = 1.5;
  o.collector_outage_mean = Hours(5);
  o.upload.spool_capacity = 4096;
  o.upload.flush_period = Hours(3);
  o.upload.max_batch_records = 256;
  o.upload.backoff_base = Seconds(90);
  o.upload.backoff_cap = Hours(2);
  o.upload.jitter_frac = 0.375;
  o.upload.drain_grace = Days(1);
  o.upload_faults.upload_loss_prob = 0.0625;
  o.upload_faults.ack_loss_prob = 0.03125;
  o.cgn = true;
  o.cgn_port_block = 1024;
  o.cgn_max_ports_per_home = 4000;

  EXPECT_EQ(Hex(home::EncodeResumableOptions(o)),
            "42534f5003000000cf2c330100000000efbefecacefaedfe00804e123c010000"
            "000c747e3c01000000804e123c010000000c747e3c01000000045b363c010000"
            "000c747e3c01000000804e123c010000000c747e3c01000000804e123c010000"
            "0088675a3c01000000045b363c010000000c747e3c0100003075000000000000"
            "000000000000c03fa0bb0d0000000000070000000300000000000000000000e0"
            "3fe80300000b000000000000000000f83f80a812010000000000100000000000"
            "0080cba400000000000001000000000000905f01000000000000dd6d00000000"
            "00000000000000d83f005c260500000000000000000000b03f000000000000a0"
            "3f0100040000a00f0000");
}

TEST_F(DurableFormatBytes, SketchOfOneToHundred) {
  std::vector<double> values;
  for (int v = 1; v <= 100; ++v) values.push_back(v);
  QuantileSketch each;
  for (const double v : values) each.add(v);
  QuantileSketch whole;
  whole.add(values);
  QuantileSketch split;  // uneven add(span) calls
  for (std::size_t at = 0, len = 1; at < values.size(); at += len, len = len * 3 + 2) {
    split.add(std::span(values).subspan(at, std::min(len, values.size() - at)));
  }
  for (const QuantileSketch* sketch : {&each, &whole, &split}) {
    EXPECT_EQ(Digest(sketch->Serialize()), "2436 14bbe59b0b82f695");
  }
}

TEST_F(DurableFormatBytes, FleetSummaryWithTwoCountries) {
  analysis::FleetSummary summary;
  summary.homes = 3;
  summary.rows = 123456;
  for (int v = 1; v <= 4; ++v) {
    summary.availability_fraction.add(0.25 * v);
    summary.capacity_down_mbps.add(8.0 * v);
    summary.flow_kbytes.add(16.0 * v);
  }
  analysis::CountryCapacity& us = summary.capacity_by_country["US"];
  us.homes = 2;
  us.down_mbps.add(16.0);
  us.down_mbps.add(24.0);
  us.up_mbps.add(1.5);
  analysis::CountryCapacity& za = summary.capacity_by_country["ZA"];
  za.homes = 1;
  za.down_mbps.add(4.0);

  EXPECT_EQ(Digest(analysis::SerializeFleetSummary(summary)), "956 f3e7bbc70b75b4e5");
}

TEST_F(DurableFormatBytes, SnapshotOfEveryKind) {
  DataRepository repo(DatasetWindows::Paper());
  repo.register_home(PinnedHome(1, "US"));
  repo.register_home(PinnedHome(2, "IN"));
  const HomeId home{1};
  const TimePoint t = MakeTime({2013, 4, 2}, 10);
  repo.add_heartbeat_run(HeartbeatRun{home, t, t + Hours(3)});
  repo.add_heartbeat_run(HeartbeatRun{HomeId{2}, t + Hours(1), t + Hours(5)});
  repo.add_uptime(UptimeRecord{home, t, Hours(30)});
  repo.add_capacity(CapacityRecord{home, t, BitRate{16e6}, BitRate{1e6}});
  DeviceCountRecord dev;
  dev.home = home;
  dev.sampled = t;
  dev.wired = 1;
  dev.wireless_24 = 2;
  dev.wireless_5 = 3;
  dev.unique_total = 6;
  dev.unique_24 = 4;
  dev.unique_5 = 5;
  repo.add_device_count(dev);
  WifiScanRecord scan;
  scan.home = home;
  scan.scanned = MakeTime({2012, 11, 3}, 4);
  scan.band = wireless::Band::k5GHz;
  scan.channel = 36;
  scan.visible_aps = 9;
  scan.associated_clients = 2;
  repo.add_wifi_scan(scan);
  TrafficFlowRecord flow;
  flow.home = home;
  flow.flow = net::FlowId{0xabcdef};
  flow.first_packet = t;
  flow.last_packet = t + Minutes(4);
  flow.protocol = net::Protocol::kUdp;
  flow.dst_port = 53;
  flow.device_mac = net::MacAddress::FromParts(0x001122, 0x334455);
  flow.bytes_up = B(1500);
  flow.bytes_down = B(64000);
  flow.packets_up = 3;
  flow.packets_down = 50;
  flow.domain = "example.com";
  flow.domain_anonymized = false;
  repo.add_flow(flow);
  TrafficFlowRecord anon = flow;
  anon.flow = net::FlowId{0xabcdf0};
  anon.domain = "anon-deadbeef";
  anon.domain_anonymized = true;
  repo.add_flow(anon);
  ThroughputMinute tm;
  tm.home = home;
  tm.minute_start = t;
  tm.bytes_up = B(2048);
  tm.bytes_down = B(65536);
  tm.peak_up_bps = 1e5;
  tm.peak_down_bps = 2.5e6;
  repo.add_throughput_minute(tm);
  DnsLogRecord dns;
  dns.home = home;
  dns.when = t;
  dns.device_mac = flow.device_mac;
  dns.query = "";
  dns.anonymized = true;
  dns.a_records = 2;
  dns.cname_records = 1;
  repo.add_dns(dns);
  DeviceTrafficRecord dt;
  dt.home = home;
  dt.device_mac = flow.device_mac;
  dt.vendor = net::VendorClass::kApple;
  dt.bytes_total = B(65500);
  dt.flows = 2;
  repo.add_device_traffic(dt);
  CgnEventRecord cgn;
  cgn.home = home;
  cgn.when = t;
  cgn.cgn_id = 3;
  cgn.port_block = 2048;
  cgn.port_block_size = 512;
  cgn.port_blocks_allocated = 2;
  cgn.ports_peak = 700;
  cgn.port_capacity = 1024;
  cgn.translations_out = 90;
  cgn.translations_in = 80;
  cgn.exhaustion_drops = 1;
  cgn.inbound_drops = 4;
  repo.add_cgn_event(cgn);
  repo.finalize_deterministic_order();

  std::string error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, dir_.string(), &error)) << error;
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    files.push_back(entry.path().filename().string() + " " + Digest(ReadFile(entry.path())));
  }
  std::sort(files.begin(), files.end());
  const std::vector<std::string> expected = {
      "capacity.bsmkcol 208 23180f1e570cd252",
      "cgn_event.bsmkcol 592 9732579eb37e93f6",
      "device_count.bsmkcol 400 a9ae89b693b7ac21",
      "device_traffic.bsmkcol 256 ff99619f436a94ba",
      "dns.bsmkcol 352 8264f2b2b19891b1",
      "heartbeat_run.bsmkcol 176 00c0a992a03f0231",
      "snapshot.bsmkmeta 3282 d4b22cfe4c838a9c",
      "throughput.bsmkcol 304 2aa23b11bf8578ef",
      "traffic_flow.bsmkcol 728 0ba80efbfdaa5610",
      "uptime.bsmkcol 160 ed1adbe914df3fc9",
      "wifi_scan.bsmkcol 304 1005173a62e91a35",
  };

  EXPECT_EQ(files, expected);
}

}  // namespace
}  // namespace bismark::collect
