// BSMKSNAP v3 columnar snapshots: exact round-trips (string edge cases
// included), kind-selective reads proven through the I/O seam, masked
// reads that check and decode only their own columns, fail-closed
// behaviour under bit flips and truncation, row reads across stripe
// boundaries, and bit-identical parallel analysis at any worker count.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/fleet.h"
#include "analysis/infrastructure.h"
#include "collect/column_snapshot.h"
#include "collect/repository.h"
#include "core/crc32c.h"
#include "core/io.h"
#include "core/rng.h"

namespace bismark::collect {
namespace {

namespace fs = std::filesystem;

DatasetWindows WideWindows() {
  const Interval all{TimePoint{0}, TimePoint{1'000'000'000}};
  return DatasetWindows{all, all, all, all, all, all};
}

/// Per-process scratch dir (ctest runs suite cases as concurrent processes)
/// plus the buffered-read override reset, so every case sees a clean seam.
class ColumnSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::ForceBufferedReadsForTest(false);
    core::ResetIoReadStats();
    dir_ = fs::temp_directory_path() /
           ("bismark_colsnap_test-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    core::ForceBufferedReadsForTest(false);
    fs::remove_all(dir_);
  }

  std::string snap_dir(const char* name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

/// At least one row in every data set, with string values that stress the
/// offsets+blob column codec: empty, embedded NUL, and multi-byte UTF-8.
void Populate(DataRepository& repo) {
  HomeInfo info;
  info.id = HomeId{7};
  info.country_code = "US";
  info.developed = true;
  info.utc_offset = Hours(-5);
  info.reports_uptime = true;
  info.consented_traffic = true;
  info.true_down_mbps = 19.75;
  repo.register_home(info);

  repo.add(HeartbeatRun{HomeId{7}, TimePoint{60000}, TimePoint{360000}});
  repo.add(UptimeRecord{HomeId{7}, TimePoint{120000}, Hours(13)});
  repo.add(CapacityRecord{HomeId{7}, TimePoint{180000}, Mbps(19.993), Mbps(4.111)});
  DeviceCountRecord dc;
  dc.home = HomeId{7};
  dc.sampled = TimePoint{240000};
  dc.wired = 2;
  dc.wireless_24 = 5;
  dc.unique_total = 11;
  repo.add(dc);
  WifiScanRecord scan;
  scan.home = HomeId{7};
  scan.scanned = TimePoint{300000};
  scan.band = wireless::Band::k5GHz;
  scan.channel = 36;
  scan.visible_aps = 4;
  repo.add(scan);
  const std::string kEdgeStrings[] = {
      "",                                  // empty value, non-empty neighbours
      std::string("a\0b", 3),              // embedded NUL survives the blob
      "caf\xc3\xa9.\xe4\xbe\x8b.jp",       // multi-byte UTF-8
      "plain.example.com",
  };
  for (int i = 0; i < 4; ++i) {
    TrafficFlowRecord flow;
    flow.home = HomeId{7};
    flow.flow = net::FlowId{0xdeadbeef00ull + static_cast<std::uint64_t>(i)};
    flow.first_packet = TimePoint{360000 + i};
    flow.last_packet = TimePoint{420000 + i};
    flow.protocol = net::Protocol::kUdp;
    flow.dst_port = 443;
    flow.device_mac = net::MacAddress({0x02, 0x11, 0x22, 0x33, 0x44, 0x55});
    flow.bytes_up = Bytes{1234};
    flow.bytes_down = Bytes{56789};
    flow.packets_up = 12;
    flow.packets_down = 48;
    flow.domain = kEdgeStrings[i];
    flow.domain_anonymized = (i == 1);
    repo.add(std::move(flow));
  }
  ThroughputMinute tm;
  tm.home = HomeId{7};
  tm.minute_start = TimePoint{480000};
  tm.bytes_down = Bytes{999};
  tm.peak_down_bps = 1.5e6;
  repo.add(tm);
  DnsLogRecord dns;
  dns.home = HomeId{7};
  dns.when = TimePoint{540000};
  dns.device_mac = net::MacAddress({0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee});
  dns.query = "netflix.com";
  dns.a_records = 2;
  repo.add(dns);
  DeviceTrafficRecord dt;
  dt.home = HomeId{7};
  dt.device_mac = net::MacAddress({0x02, 0x01, 0x02, 0x03, 0x04, 0x05});
  dt.vendor = net::VendorClass::kUnknown;
  dt.bytes_total = Bytes{777777};
  dt.flows = 42;
  repo.add(dt);
  CgnEventRecord cgn;
  cgn.home = HomeId{7};
  cgn.when = TimePoint{600000};
  cgn.cgn_id = 3;
  cgn.port_block = 1024;
  cgn.translations_out = 55;
  repo.add(cgn);
  repo.finalize_deterministic_order();
}

template <typename T>
std::vector<T> CollectRows(const DataRepository& repo, FieldMask<T> fields = FieldMask<T>::All()) {
  std::vector<T> rows;
  repo.for_each_row<T>([&](const T& r) { rows.push_back(r); }, fields);
  return rows;
}

void ExpectSameRepo(const DataRepository& expected, const DataRepository& actual) {
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    EXPECT_EQ(CollectRows<T>(expected), CollectRows<T>(actual)) << Schema<T>::kKindName;
  });
  EXPECT_EQ(expected.total_rows(), actual.total_rows());
  ASSERT_EQ(expected.homes().size(), actual.homes().size());
  for (std::size_t i = 0; i < expected.homes().size(); ++i) {
    EXPECT_EQ(expected.homes()[i], actual.homes()[i]);
  }
}

TEST_F(ColumnSnapshotTest, RoundTripReproducesEveryDatasetExactly) {
  DataRepository repo(WideWindows());
  Populate(repo);
  const std::string dir = snap_dir("full");
  std::string error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, dir, &error)) << error;
  ASSERT_TRUE(IsColumnSnapshotDir(dir));

  const auto loaded = OpenColumnSnapshot(dir, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_TRUE(loaded->column_backed());
  ExpectSameRepo(repo, *loaded);
  EXPECT_EQ(loaded->windows().heartbeats.start, repo.windows().heartbeats.start);
  EXPECT_EQ(loaded->windows().traffic.end, repo.windows().traffic.end);
}

TEST_F(ColumnSnapshotTest, RoundTripThroughBufferedReadFallback) {
  // The heap fallback must expose byte-identical data to the mmap path.
  DataRepository repo(WideWindows());
  Populate(repo);
  const std::string dir = snap_dir("buffered");
  std::string error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, dir, &error)) << error;

  core::ForceBufferedReadsForTest(true);
  const auto loaded = OpenColumnSnapshot(dir, &error);
  ASSERT_NE(loaded, nullptr) << error;
  ExpectSameRepo(repo, *loaded);
}

TEST_F(ColumnSnapshotTest, EmptyRepositoryRoundTrips) {
  const DataRepository repo(WideWindows());
  const std::string dir = snap_dir("empty");
  std::string error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, dir, &error)) << error;

  // No rows -> no kind files, just the meta.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_EQ(e.path().filename().string(), kColumnMetaFile);
    ++files;
  }
  EXPECT_EQ(files, 1u);

  const auto loaded = OpenColumnSnapshot(dir, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->total_rows(), 0u);
  EXPECT_TRUE(loaded->homes().empty());
}

TEST_F(ColumnSnapshotTest, ParallelWritersProduceIdenticalBytes) {
  DataRepository repo(WideWindows());
  Populate(repo);
  std::string error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, snap_dir("w1"), &error, 1)) << error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, snap_dir("w4"), &error, 4)) << error;

  const auto bytes_of = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  std::size_t compared = 0;
  for (const auto& e : fs::directory_iterator(snap_dir("w1"))) {
    const auto name = e.path().filename();
    EXPECT_EQ(bytes_of(e.path()), bytes_of(fs::path(snap_dir("w4")) / name)) << name;
    ++compared;
  }
  EXPECT_GT(compared, 1u);
}

TEST_F(ColumnSnapshotTest, AnalyzeReadsOnlyQueriedKindSegments) {
  // The product guarantee of DESIGN §14: a single-figure query maps only
  // its own kind files. Proven through the core::IoReadStats seam rather
  // than asserted from code structure.
  DataRepository repo(WideWindows());
  Populate(repo);
  const std::string dir = snap_dir("selective");
  std::string error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, dir, &error)) << error;

  const auto loaded = OpenColumnSnapshot(dir, &error);
  ASSERT_NE(loaded, nullptr) << error;

  core::ResetIoReadStats();
  double down = 0;
  loaded->for_each_row<CapacityRecord>(
      [&](const CapacityRecord& c) { down += c.downstream.mbps(); });
  EXPECT_GT(down, 0.0);

  const auto paths = core::IoReadPaths();
  ASSERT_EQ(paths.size(), 1u) << "capacity scan must map exactly one kind file";
  EXPECT_NE(paths[0].find("capacity"), std::string::npos) << paths[0];
  EXPECT_NE(paths[0].find(kColumnFileSuffix), std::string::npos) << paths[0];
  EXPECT_EQ(core::CurrentIoReadStats().files_opened, 1u);

  // A second scan of the same kind re-uses the mapping: no new opens.
  loaded->for_each_row<CapacityRecord>([&](const CapacityRecord&) {});
  EXPECT_EQ(core::CurrentIoReadStats().files_opened, 1u);
}

std::string ReadBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void WriteBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- masked reads ---------------------------------------------------------------

/// Field I of every row of kind T, read alone from `loaded`, against the
/// full rows of `expected` with every other member value-initialized.
template <typename T, std::size_t I>
void ExpectOnlyFieldDecoded(const DataRepository& expected, const DataRepository& loaded) {
  constexpr auto kMember = std::get<I>(Schema<T>::Fields()).member;
  std::vector<T> want = CollectRows<T>(expected);
  ASSERT_FALSE(want.empty()) << Schema<T>::kKindName;
  for (T& row : want) {
    T only{};
    only.*kMember = row.*kMember;
    row = std::move(only);
  }
  EXPECT_EQ(CollectRows<T>(loaded, FieldsOf<kMember>), want)
      << Schema<T>::kKindName << " field " << I;
}

TEST_F(ColumnSnapshotTest, MaskedReadDecodesExactlyItsFields) {
  DataRepository repo(WideWindows());
  Populate(repo);
  const std::string dir = snap_dir("masked");
  std::string error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, dir, &error)) << error;
  const auto loaded = OpenColumnSnapshot(dir, &error);
  ASSERT_NE(loaded, nullptr) << error;

  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    [&]<std::size_t... Is>(std::index_sequence<Is...>) {
      (ExpectOnlyFieldDecoded<T, Is>(repo, *loaded), ...);
    }(std::make_index_sequence<FieldMask<T>::kNumFields>{});
    EXPECT_EQ(CollectRows<T>(*loaded, FieldMask<T>::All()), CollectRows<T>(repo));
  });

  // Two fields, and the resident arm, whose rows are whole already.
  using WS = WifiScanRecord;
  WS want = repo.rows<WS>().front();
  want.scanned = TimePoint{};
  want.band = WS{}.band;
  want.channel = 0;
  want.associated_clients = 0;
  EXPECT_EQ(CollectRows<WS>(*loaded, FieldsOf<&WS::visible_aps, &WS::home>),
            std::vector<WS>{want});
  EXPECT_EQ(CollectRows<WS>(repo, FieldsOf<&WS::visible_aps>), repo.rows<WS>());
}

/// The offset of the body of section (stripe, field) in a column file,
/// found by its frame header: "CSC3", field, stripe, encoding.
std::size_t SectionBodyOffset(const std::string& file, std::uint32_t stripe, std::uint32_t field,
                              std::uint32_t encoding) {
  std::string header = "CSC3";
  for (const std::uint32_t v : {field, stripe, encoding}) {
    for (int i = 0; i < 4; ++i) header.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  const std::size_t pos = file.find(header);
  EXPECT_NE(pos, std::string::npos) << "no section for field " << field;
  return pos + header.size();
}

TEST_F(ColumnSnapshotTest, FlipOutsideTheMaskSparesAMaskedRead) {
  using WS = WifiScanRecord;
  DataRepository repo(WideWindows());
  Populate(repo);
  const std::string dir = snap_dir("maskflip");
  std::string error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, dir, &error)) << error;
  const fs::path file = fs::path(dir) / "wifi_scan.bsmkcol";
  const std::string pristine = ReadBytes(file);
  const auto flipped = [&](std::uint32_t field) {
    std::string bent = pristine;
    const std::size_t pos = SectionBodyOffset(pristine, 0, field, 4);
    bent[pos] = static_cast<char>(bent[pos] ^ 0x01);
    return bent;
  };
  const auto masked = FieldsOf<&WS::home, &WS::visible_aps, &WS::associated_clients>;
  std::vector<WS> want = CollectRows<WS>(repo);
  for (WS& row : want) row = WS{row.home, {}, WS{}.band, 0, row.visible_aps, row.associated_clients};

  // Field 3 is `channel`: outside the mask.
  WriteBytes(file, flipped(3));
  auto loaded = OpenColumnSnapshot(dir, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(CollectRows<WS>(*loaded, masked), want);
  try {
    (void)CollectRows<WS>(*loaded);
    ADD_FAILURE() << "a full read decoded a corrupt column";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("snapshot: corrupt ", 0), 0u) << what;
    EXPECT_NE(what.find("stripe 0 field 3: "), std::string::npos) << what;
  }
  EXPECT_THROW(loaded->columns()->ensure_kind_open(kRecordIndexOf<WS>), std::runtime_error);

  // Field 4 is `visible_aps`: inside it.
  WriteBytes(file, flipped(4));
  loaded = OpenColumnSnapshot(dir, &error);
  ASSERT_NE(loaded, nullptr) << error;
  try {
    (void)CollectRows<WS>(*loaded, masked);
    ADD_FAILURE() << "a masked read decoded a corrupt column";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("snapshot: corrupt ", 0), 0u) << what;
    EXPECT_NE(what.find("stripe 0 field 4: "), std::string::npos) << what;
  }
  EXPECT_EQ(CollectRows<WS>(*loaded, FieldsOf<&WS::channel>).size(), want.size());
}

/// Body bytes of the fields the fleet feeders and the devices-per-home pass
/// read, each a fixed-width column of rows × width bytes.
std::uint64_t FeederColumnBytes(const ColumnSnapshot& snap) {
  const auto rows = [&snap]<typename T>(TypeTag<T>) {
    return snap.rows_of_kind(kRecordIndexOf<T>);
  };
  return rows(TypeTag<HeartbeatRun>{}) * (4 + 8 + 8) +      // home, start, end
         rows(TypeTag<DeviceCountRecord>{}) * (4 + 4) +     // home, unique_total
         rows(TypeTag<CapacityRecord>{}) * (4 + 8 + 8) +    // home, down, up
         rows(TypeTag<WifiScanRecord>{}) * (4 + 4) +        // visible, associated
         rows(TypeTag<ThroughputMinute>{}) * 8 +            // peak_down_bps
         rows(TypeTag<TrafficFlowRecord>{}) * (8 + 8);      // bytes up, down
}

TEST_F(ColumnSnapshotTest, FleetSummaryVerifiesOnlyTheMaskedSections) {
  DataRepository repo(WideWindows());
  Populate(repo);
  const std::string dir = snap_dir("verified");
  std::string error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, dir, &error)) << error;
  const auto loaded = OpenColumnSnapshot(dir, &error);
  ASSERT_NE(loaded, nullptr) << error;
  const ColumnSnapshot& snap = *loaded->columns();
  EXPECT_EQ(snap.bytes_verified(), 0u);

  const analysis::FleetSummary summary = analysis::SummarizeFleet(*loaded, 2);
  const Cdf devices = analysis::UniqueDevicesCdf(*loaded);
  const std::uint64_t masked = FeederColumnBytes(snap);
  EXPECT_EQ(snap.bytes_verified(), masked);
  EXPECT_EQ(analysis::SerializeFleetSummary(summary),
            analysis::SerializeFleetSummary(analysis::SummarizeFleet(repo, 2)));
  EXPECT_EQ(devices.size(), analysis::UniqueDevicesCdf(repo).size());

  // Checked sections count once; whole-kind checks add the other columns.
  (void)analysis::SummarizeFleet(*loaded, 1);
  EXPECT_EQ(snap.bytes_verified(), masked);
  for (std::size_t kind = 0; kind < kRecordKinds; ++kind) {
    if (snap.rows_of_kind(kind) > 0) snap.ensure_kind_open(kind);
  }
  std::uint64_t files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == kColumnFileSuffix) files += fs::file_size(e.path());
  }
  EXPECT_GT(snap.bytes_verified(), masked);
  EXPECT_LT(snap.bytes_verified(), files);
}

// --- fail closed: bit flips and truncation ----------------------------------

/// Streams every kind in full; a full read checks each section's frame and
/// CRC the first time it touches it, so damage anywhere surfaces as
/// std::runtime_error here.
bool StreamsCleanly(const std::string& dir, const DataRepository& expected) {
  std::string error;
  const auto loaded = OpenColumnSnapshot(dir, &error);
  if (loaded == nullptr) return false;
  bool same = true;
  try {
    ForEachRecordType([&](auto tag) {
      using T = typename decltype(tag)::type;
      if (CollectRows<T>(expected) != CollectRows<T>(*loaded)) same = false;
    });
  } catch (const std::runtime_error&) {
    return false;
  }
  return same;
}

TEST_F(ColumnSnapshotTest, BitFlipsInColumnFileFailClosedOrDecodeIdentically) {
  DataRepository repo(WideWindows());
  Populate(repo);
  const std::string dir = snap_dir("fuzz");
  std::string error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, dir, &error)) << error;

  const fs::path victim = fs::path(dir) / "traffic_flow.bsmkcol";
  ASSERT_TRUE(fs::exists(victim)) << "expected a flow kind file";
  std::string pristine;
  {
    std::ifstream in(victim, std::ios::binary);
    pristine.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_GT(pristine.size(), kColumnFileHeaderBytes);

  std::size_t rejected = 0, total = 0;
  for (std::size_t pos = 0; pos < pristine.size(); pos += 7) {
    std::string bent = pristine;
    bent[pos] = static_cast<char>(bent[pos] ^ 0x20);
    {
      std::ofstream out(victim, std::ios::binary | std::ios::trunc);
      out.write(bent.data(), static_cast<std::streamsize>(bent.size()));
    }
    ++total;
    if (!StreamsCleanly(dir, repo)) ++rejected;
    // Flips landing in inter-section zero padding are outside every CRC and
    // may legitimately decode identically; anything else must be caught.
  }
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(pristine.data(), static_cast<std::streamsize>(pristine.size()));
  }
  EXPECT_TRUE(StreamsCleanly(dir, repo)) << "restored file must verify again";
  EXPECT_GT(total, 20u);
  EXPECT_GE(rejected * 10, total * 9)
      << "expected >=90% of bit flips rejected (" << rejected << "/" << total << ")";
}

TEST_F(ColumnSnapshotTest, TruncatedColumnFileFailsClosed) {
  DataRepository repo(WideWindows());
  Populate(repo);
  const std::string dir = snap_dir("trunc");
  std::string error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, dir, &error)) << error;

  const fs::path victim = fs::path(dir) / "uptime.bsmkcol";
  ASSERT_TRUE(fs::exists(victim));
  const auto full = fs::file_size(victim);
  for (const std::uintmax_t keep :
       {std::uintmax_t{0}, std::uintmax_t{7}, full / 2, full - 1}) {
    fs::resize_file(victim, keep);
    EXPECT_FALSE(StreamsCleanly(dir, repo)) << "kept " << keep << " of " << full;
  }
}

TEST_F(ColumnSnapshotTest, DamagedMetaFailsClosed) {
  DataRepository repo(WideWindows());
  Populate(repo);
  const std::string dir = snap_dir("metafuzz");
  std::string error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, dir, &error)) << error;

  // Seeded bit flips and a prefix sweep over the meta file live in
  // CorruptionFuzz.SnapshotBitFlipsAlwaysRejected; these are the fixed
  // positions: magic, version, mid-body and the trailing CRC32C.
  const fs::path meta = fs::path(dir) / kColumnMetaFile;
  const std::string pristine = ReadBytes(meta);
  for (const std::size_t pos :
       {std::size_t{0}, std::size_t{4}, pristine.size() / 2, pristine.size() - 2}) {
    std::string bent = pristine;
    bent[pos] = static_cast<char>(bent[pos] ^ 0x01);
    WriteBytes(meta, bent);
    EXPECT_EQ(OpenColumnSnapshot(dir, &error), nullptr) << "flip at " << pos;
  }
  // Truncated meta: the directory no longer parses; fail closed, not crash.
  WriteBytes(meta, pristine.substr(0, pristine.size() / 3));
  EXPECT_EQ(OpenColumnSnapshot(dir, &error), nullptr);
  WriteBytes(meta, pristine);
  EXPECT_NE(OpenColumnSnapshot(dir, &error), nullptr) << error;
  // A directory without the meta file is simply not a snapshot dir.
  fs::remove(meta);
  EXPECT_FALSE(IsColumnSnapshotDir(dir));
}

// --- strict meta parsing: forged meta files with a valid CRC ----------------

/// Write a populated snapshot to `dir`, rewrite its meta body with `edit`
/// and recompute the trailing CRC32C, so the forgery reaches the parse-layer
/// check a test targets instead of stopping at the checksum. Returns the
/// diagnostic of the refused open.
std::string OpenForgedMeta(const std::string& dir,
                           const std::function<void(std::string&)>& edit) {
  DataRepository repo(WideWindows());
  Populate(repo);
  std::string error;
  EXPECT_TRUE(SaveColumnSnapshot(repo, dir, &error)) << error;

  const fs::path meta = fs::path(dir) / kColumnMetaFile;
  std::string bytes = ReadBytes(meta);
  bytes.resize(bytes.size() - 4);
  edit(bytes);
  const std::uint32_t crc = core::Crc32c(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  WriteBytes(meta, bytes);

  EXPECT_EQ(OpenColumnSnapshot(dir, &error), nullptr) << "forged meta opened";
  return error;
}

/// Flip the first byte of the first occurrence of `name` in the meta body.
std::function<void(std::string&)> RenameFirst(const std::string& name) {
  return [name](std::string& meta) {
    const auto pos = meta.find(name);
    ASSERT_NE(pos, std::string::npos) << name;
    meta[pos] = 'X';
  };
}

TEST_F(ColumnSnapshotTest, MetaRejectsFutureVersion) {
  const std::string error = OpenForgedMeta(snap_dir("version"), [](std::string& meta) {
    meta[sizeof(kSnapshotMagic)] = static_cast<char>(kColumnSnapshotVersion + 1);  // LE u32
  });
  EXPECT_NE(error.find("unsupported version"), std::string::npos) << error;
}

TEST_F(ColumnSnapshotTest, MetaRejectsKindNameDrift) {
  // The first kind's name precedes its column file name in the meta table.
  const std::string error = OpenForgedMeta(snap_dir("kind"), RenameFirst("heartbeat_run"));
  EXPECT_NE(error.find("kind name mismatch"), std::string::npos) << error;
}

TEST_F(ColumnSnapshotTest, MetaRejectsFieldNameDrift) {
  const std::string error = OpenForgedMeta(snap_dir("field"), RenameFirst("run_start_ms"));
  EXPECT_NE(error.find("field name mismatch"), std::string::npos) << error;
}

TEST_F(ColumnSnapshotTest, MetaRejectsTrailingBytes) {
  const std::string error =
      OpenForgedMeta(snap_dir("trailing"), [](std::string& meta) { meta += "junk"; });
  EXPECT_NE(error.find("trailing bytes"), std::string::npos) << error;
}

// --- multi-stripe reads --------------------------------------------------------

/// Two full stripes and a partial one of wifi scans, the largest fed kind,
/// over five homes.
constexpr std::uint64_t kMultiStripeRows = 2 * kColumnStripeRows + 1000;

void PopulateMultiStripeWifi(DataRepository& repo) {
  Rng rng(7);
  for (int h = 0; h < 5; ++h) {
    HomeInfo info;
    info.id = HomeId{h};
    info.country_code = "US";
    repo.register_home(info);
  }
  for (std::uint64_t i = 0; i < kMultiStripeRows; ++i) {
    WifiScanRecord scan;
    scan.home = HomeId{static_cast<int>(i % 5)};
    scan.scanned = TimePoint{static_cast<std::int64_t>(i / 5)};
    scan.visible_aps = static_cast<int>(rng.uniform_int(0, 30));
    scan.associated_clients = static_cast<int>(i % 9);
    repo.add(scan);
  }
  repo.finalize_deterministic_order();
}

TEST_F(ColumnSnapshotTest, RowReaderCrossesStripeBoundaries) {
  // Batches of the whole-kind reader span stripe boundaries, the one-stripe
  // readers partition the rows, and the per-stripe summary folds three
  // partials.
  DataRepository repo(WideWindows());
  PopulateMultiStripeWifi(repo);
  const std::uint64_t rows = kMultiStripeRows;
  const std::string dir = snap_dir("stripes");
  std::string error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, dir, &error)) << error;
  const auto loaded = OpenColumnSnapshot(dir, &error);
  ASSERT_NE(loaded, nullptr) << error;
  const std::size_t kind = kRecordIndexOf<WifiScanRecord>;
  ASSERT_EQ(loaded->columns()->stripes_of_kind(kind), 3u);

  const std::vector<WifiScanRecord>& want = repo.rows<WifiScanRecord>();
  EXPECT_EQ(CollectRows<WifiScanRecord>(*loaded), want);
  std::vector<WifiScanRecord> by_stripe;
  for (std::size_t s = 0; s < 3; ++s) {
    RowReader<WifiScanRecord> reader(*loaded, s);
    std::vector<WifiScanRecord> buffer;
    for (std::span<const WifiScanRecord> batch; !(batch = reader.read(buffer)).empty();) {
      EXPECT_LE(batch.size(), kReadBatchRows);
      by_stripe.insert(by_stripe.end(), batch.begin(), batch.end());
    }
  }
  EXPECT_EQ(by_stripe, want);

  const analysis::FleetSummary summary = analysis::SummarizeFleet(*loaded, 1);
  EXPECT_EQ(analysis::SerializeFleetSummary(analysis::SummarizeFleet(*loaded, 4)),
            analysis::SerializeFleetSummary(summary));
  EXPECT_EQ(summary.visible_aps.count(), rows);
  EXPECT_EQ(summary.associated_clients.count(), rows);
  EXPECT_EQ(summary.associated_clients.max(), 8.0);
}

TEST_F(ColumnSnapshotTest, ConcurrentReadersCheckEachSectionOnce) {
  // Four threads read the same sections at once, then the per-stripe
  // summary reads them on four workers: every reader gets the rows, and
  // each section's bytes are counted once however many readers raced to it.
  using WS = WifiScanRecord;
  DataRepository repo(WideWindows());
  PopulateMultiStripeWifi(repo);
  const std::string dir = snap_dir("concurrent");
  std::string error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, dir, &error)) << error;
  const auto loaded = OpenColumnSnapshot(dir, &error);
  ASSERT_NE(loaded, nullptr) << error;
  const ColumnSnapshot& snap = *loaded->columns();

  std::int64_t want = 0;
  for (const WS& scan : repo.rows<WS>()) want += scan.visible_aps;
  std::vector<std::int64_t> sums(4, 0);
  std::vector<std::thread> readers;
  for (std::int64_t& sum : sums) {
    readers.emplace_back([&loaded, &sum] {
      loaded->for_each_row<WS>([&sum](const WS& scan) { sum += scan.visible_aps; },
                               FieldsOf<&WS::visible_aps>);
    });
  }
  for (std::thread& t : readers) t.join();
  for (const std::int64_t sum : sums) EXPECT_EQ(sum, want);
  EXPECT_EQ(snap.bytes_verified(), kMultiStripeRows * 4);

  const analysis::FleetSummary summary = analysis::SummarizeFleet(*loaded, 4);
  EXPECT_EQ(summary.associated_clients.count(), kMultiStripeRows);
  EXPECT_EQ(snap.bytes_verified(), kMultiStripeRows * (4 + 4));
}

// --- parallel analysis determinism ------------------------------------------

TEST_F(ColumnSnapshotTest, ParallelAnalyzeIsBitIdenticalAcrossWorkerCounts) {
  // Enough capacity rows to span multiple stripes would need 64Ki+ rows;
  // what matters here is that the per-(kind,stripe) partials merge in
  // stripe order regardless of which worker ran them, so worker counts
  // 1/2/4 must serialize to byte-identical summaries.
  DataRepository repo(WideWindows());
  Rng rng(20131023);
  static const char* kCountries[] = {"US", "BR", "IN"};
  for (int h = 0; h < 30; ++h) {
    HomeInfo info;
    info.id = HomeId{h};
    info.country_code = kCountries[h % 3];
    info.reports_uptime = true;
    info.reports_devices = true;
    repo.register_home(info);
    repo.add(HeartbeatRun{HomeId{h}, TimePoint{0}, TimePoint{0} + Days(30)});
    for (int i = 0; i < 40; ++i) {
      repo.add(CapacityRecord{HomeId{h}, TimePoint{1000 * i},
                              Mbps(rng.lognormal(2.5, 0.8)), Mbps(rng.lognormal(1.0, 0.7))});
      WifiScanRecord scan;
      scan.home = HomeId{h};
      scan.scanned = TimePoint{2000 * i};
      scan.visible_aps = static_cast<int>(rng.uniform_int(0, 20));
      repo.add(scan);
    }
  }
  repo.finalize_deterministic_order();
  const std::string dir = snap_dir("det");
  std::string error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, dir, &error)) << error;
  const auto loaded = OpenColumnSnapshot(dir, &error);
  ASSERT_NE(loaded, nullptr) << error;

  const analysis::FleetSummary summary = analysis::SummarizeFleet(*loaded, 1);
  const std::string one = analysis::SerializeFleetSummary(summary);
  const std::string two =
      analysis::SerializeFleetSummary(analysis::SummarizeFleet(*loaded, 2));
  const std::string four =
      analysis::SerializeFleetSummary(analysis::SummarizeFleet(*loaded, 4));
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);

  ASSERT_EQ(summary.capacity_by_country.size(), 3u);
  EXPECT_EQ(summary.capacity_by_country.at("US").homes, 10u);
  EXPECT_EQ(summary.capacity_by_country.at("BR").down_mbps.count(), 400u);
}

}  // namespace
}  // namespace bismark::collect
