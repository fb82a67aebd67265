// Corruption property suite (DESIGN §12): random bit flips and truncations
// over segment files and snapshot meta files must always be *detected* —
// reads fail closed with a diagnostic, never return silently wrong rows —
// and a quarantined spill directory must be usable again after recovery
// re-runs the dropped shards.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "collect/column_snapshot.h"
#include "collect/manifest.h"
#include "collect/repository.h"
#include "core/rng.h"

namespace bismark::collect {
namespace {

namespace fs = std::filesystem;

constexpr int kHomes = 8;
constexpr int kShardSize = 2;
constexpr int kShards = kHomes / kShardSize;

fs::path FreshDir(const char* tag) {
  const auto dir = fs::temp_directory_path() /
                   (std::string("bsmk-test-corrupt-") + tag + "-" +
                    std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

/// A few hundred rows across four kinds — enough that every segment file
/// holds several committed sections worth corrupting. The DNS rows give
/// the sections a string column: queries of varied length, some empty.
void EmitHome(RecordSink& sink, const DatasetWindows& w, int home_idx) {
  const HomeId home{home_idx};
  Rng rng(3000 + static_cast<std::uint64_t>(home_idx));
  for (int i = 0; i < 12; ++i) {
    CapacityRecord cap;
    cap.home = home;
    cap.measured = w.capacity.start + Hours(6 * i);
    cap.downstream = BitRate{rng.uniform(1e6, 1e8)};
    cap.upstream = BitRate{rng.uniform(1e5, 1e7)};
    sink.add_capacity(cap);
  }
  for (int i = 0; i < 25; ++i) {
    WifiScanRecord scan;
    scan.home = home;
    scan.scanned = w.wifi.start + Hours(i * 2);
    scan.band = i % 2 ? wireless::Band::k5GHz : wireless::Band::k2_4GHz;
    scan.channel = 1 + i % 11;
    scan.visible_aps = static_cast<int>(rng.uniform(0.0, 20.0));
    sink.add_wifi_scan(scan);
  }
  for (int i = 0; i < 40; ++i) {
    ThroughputMinute tm;
    tm.home = home;
    tm.minute_start = w.traffic.start + Minutes(i);
    tm.bytes_down = B(1000 * (i + home_idx));
    tm.peak_down_bps = rng.uniform(0.0, 1e7);
    sink.add_throughput_minute(tm);
  }
  for (int i = 0; i < 20; ++i) {
    DnsLogRecord dns;
    dns.home = home;
    dns.when = w.traffic.start + Minutes(3 * i);
    dns.device_mac = net::MacAddress::FromParts(0x001122, static_cast<std::uint32_t>(i % 4));
    const auto length = static_cast<std::size_t>(i % 5 == 0 ? 0 : (7 * i + home_idx) % 40);
    dns.query = std::string(length, static_cast<char>('a' + i % 26));
    dns.anonymized = i % 3 == 0;
    dns.a_records = i % 4;
    sink.add_dns(dns);
  }
}

void RegisterHomes(DataRepository& repo) {
  for (int h = 0; h < kHomes; ++h) {
    HomeInfo info;
    info.id = HomeId{h};
    info.country_code = "US";
    info.reports_uptime = true;
    repo.register_home(info);
  }
}

void EmitShard(DataRepository& repo, const DatasetWindows& w, int shard) {
  IngestBatch batch = repo.make_batch();
  batch.attach_spill(repo.spill(), static_cast<std::uint32_t>(shard),
                     static_cast<std::size_t>(shard % 2));
  for (int h = shard * kShardSize; h < (shard + 1) * kShardSize; ++h) {
    EmitHome(batch, w, h);
  }
  repo.commit(std::move(batch));
}

SpillConfig TinyBudget(const fs::path& dir) {
  SpillConfig cfg;
  cfg.dir = dir.string();
  cfg.budget_bytes = 16 << 10;  // force several sections per shard
  cfg.workers = 2;
  return cfg;
}

std::unique_ptr<DataRepository> BuildSpilled(const DatasetWindows& w,
                                             const fs::path& dir) {
  auto repo = std::make_unique<DataRepository>(w);
  RegisterHomes(*repo);
  repo->enable_spill(TinyBudget(dir));
  for (int shard = 0; shard < kShards; ++shard) EmitShard(*repo, w, shard);
  repo->finalize_deterministic_order();
  return repo;
}

/// Stream every kind the emitter produced; corrupt bytes must surface here.
void ReadEverything(const DataRepository& repo) {
  std::uint64_t rows = 0;
  repo.for_each_row<CapacityRecord>([&](const CapacityRecord&) { ++rows; });
  repo.for_each_row<WifiScanRecord>([&](const WifiScanRecord&) { ++rows; });
  repo.for_each_row<ThroughputMinute>([&](const ThroughputMinute&) { ++rows; });
  repo.for_each_row<DnsLogRecord>([&](const DnsLogRecord&) { ++rows; });
  ASSERT_GT(rows, 0u);
}

template <typename T>
void ExpectSameRows(const DataRepository& got_repo, const DataRepository& want_repo) {
  std::vector<T> got;
  got_repo.for_each_row<T>([&](const T& row) { got.push_back(row); });
  EXPECT_EQ(got, want_repo.rows<T>()) << Schema<T>::kKindName;
}

std::string Slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void Dump(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CorruptionFuzz, SegmentBitFlipsAlwaysDetected) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto dir = FreshDir("segflip");
  const auto repo = BuildSpilled(w, dir);
  ASSERT_NO_FATAL_FAILURE(ReadEverything(*repo));  // clean baseline

  const fs::path seg = dir / "seg-g0-w0.bsmkseg";
  const std::string clean = Slurp(seg);
  ASSERT_GT(clean.size(), 1000u);

  Rng rng(20131023);
  int detected = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const auto byte = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(clean.size()) - 1));
    const int bit = static_cast<int>(rng.uniform_int(0, 7));
    std::string bent = clean;
    bent[byte] = static_cast<char>(bent[byte] ^ (1 << bit));
    Dump(seg, bent);
    try {
      ReadEverything(*repo);
      ADD_FAILURE() << "bit flip at byte " << byte << " bit " << bit
                    << " read back silently";
    } catch (const std::runtime_error& e) {
      ++detected;
      EXPECT_NE(std::string(e.what()).find("spill: corrupt"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(detected, 24);

  // Restoring the clean bytes restores the read path (no sticky state).
  Dump(seg, clean);
  ASSERT_NO_FATAL_FAILURE(ReadEverything(*repo));
  fs::remove_all(dir);
}

TEST(CorruptionFuzz, SegmentTruncationAlwaysDetected) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto dir = FreshDir("segtrunc");
  const auto repo = BuildSpilled(w, dir);

  const fs::path seg = dir / "seg-g0-w1.bsmkseg";
  const std::string clean = Slurp(seg);
  ASSERT_GT(clean.size(), 1000u);

  Rng rng(42);
  for (int trial = 0; trial < 12; ++trial) {
    const auto keep = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(clean.size()) - 1));
    Dump(seg, clean.substr(0, keep));
    EXPECT_THROW(ReadEverything(*repo), std::runtime_error)
        << "truncation to " << keep << " bytes read back silently";
  }
  Dump(seg, clean);
  ASSERT_NO_FATAL_FAILURE(ReadEverything(*repo));
  fs::remove_all(dir);
}

TEST(CorruptionFuzz, SnapshotBitFlipsAlwaysRejected) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  DataRepository repo(w);
  RegisterHomes(repo);
  {
    IngestBatch batch = repo.make_batch();
    for (int h = 0; h < kHomes; ++h) EmitHome(batch, w, h);
    repo.commit(std::move(batch));
  }
  repo.finalize_deterministic_order();

  const auto dir = FreshDir("snapshot");
  std::string error;
  ASSERT_TRUE(SaveColumnSnapshot(repo, dir.string(), &error)) << error;
  const fs::path meta = dir / kColumnMetaFile;
  const std::string clean = Slurp(meta);
  const auto opens = [&](const std::string& bytes, std::string* why) {
    Dump(meta, bytes);
    return OpenColumnSnapshot(dir.string(), why) != nullptr;
  };

  Rng rng(7);
  for (int trial = 0; trial < 48; ++trial) {
    const auto byte = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(clean.size()) - 1));
    const int bit = static_cast<int>(rng.uniform_int(0, 7));
    std::string bent = clean;
    bent[byte] = static_cast<char>(bent[byte] ^ (1 << bit));
    std::string why;
    EXPECT_FALSE(opens(bent, &why))
        << "flip at byte " << byte << " bit " << bit << " loaded silently";
    EXPECT_FALSE(why.empty());
  }

  // Truncation sweep: every proper prefix must be rejected too.
  std::set<std::size_t> cuts = {0, 1, 7, 8, 11, 12, 15, clean.size() / 2,
                                clean.size() - 5, clean.size() - 4,
                                clean.size() - 1};
  for (int trial = 0; trial < 16; ++trial) {
    cuts.insert(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(clean.size()) - 1)));
  }
  for (const std::size_t cut : cuts) {
    std::string why;
    EXPECT_FALSE(opens(clean.substr(0, cut), &why)) << "prefix of " << cut << " bytes";
    EXPECT_FALSE(why.empty());
  }

  EXPECT_TRUE(opens(clean, &error)) << error;
  fs::remove_all(dir);
}

TEST(CorruptionFuzz, RecoveredDirectoryIsUsableAfterQuarantine) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);

  // Reference rows from the all-in-RAM path.
  DataRepository ram(w);
  RegisterHomes(ram);
  for (int shard = 0; shard < kShards; ++shard) {
    IngestBatch batch = ram.make_batch();
    for (int h = shard * kShardSize; h < (shard + 1) * kShardSize; ++h) {
      EmitHome(batch, w, h);
    }
    ram.commit(std::move(batch));
  }
  ram.finalize_deterministic_order();

  // A spilled run with full WAL bookkeeping, then one flipped section byte.
  const auto dir = FreshDir("recover");
  SectionRef victim;
  {
    DataRepository repo(w);
    RegisterHomes(repo);
    repo.enable_spill(TinyBudget(dir));
    ManifestConfig mcfg;
    mcfg.schema_fingerprint = SchemaFingerprint();
    mcfg.shard_count = kShards;
    mcfg.options_blob = "corruption-suite";
    repo.spill()->write_run_config(mcfg);
    for (int shard = 0; shard < kShards; ++shard) {
      EmitShard(repo, w, shard);
      std::vector<HomeInfo> homes;
      for (int h = shard * kShardSize; h < (shard + 1) * kShardSize; ++h) {
        HomeInfo info;
        info.id = HomeId{h};
        info.country_code = "US";
        info.reports_uptime = true;
        homes.push_back(info);
      }
      repo.spill()->record_shard_done(static_cast<std::uint32_t>(shard), homes);
    }
    repo.spill()->flush_all();
    bool found = false;
    for (std::size_t kind = 0; kind < kRecordKinds && !found; ++kind) {
      for (const SectionRef& ref : repo.spill()->sections_of_kind(kind)) {
        if (ref.file == 0) {  // lives in seg-g0-w0.bsmkseg
          victim = ref;
          found = true;
          break;
        }
      }
    }
    ASSERT_TRUE(found);
  }
  {
    std::fstream f(dir / "seg-g0-w0.bsmkseg",
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(victim.offset));
    const char orig = static_cast<char>(f.get());
    f.seekp(static_cast<std::streamoff>(victim.offset));
    f.put(static_cast<char>(orig ^ 0x04));
  }

  // Recovery quarantines the victim's shard; re-running just that shard
  // through a resumed SpillDir must reproduce the reference rows exactly.
  SpillRecovery rec;
  std::string error;
  ASSERT_TRUE(RecoverSpillDir(dir.string(), &rec, &error)) << error;
  EXPECT_GE(rec.sections_quarantined, 1u);
  ASSERT_EQ(rec.shards_dropped, 1u);
  ASSERT_EQ(rec.done_shards.size(), static_cast<std::size_t>(kShards - 1));

  DataRepository resumed(w);
  resumed.enable_spill_recovered(TinyBudget(dir), rec);  // registers recovered homes
  std::set<std::uint32_t> done(rec.done_shards.begin(), rec.done_shards.end());
  for (int shard = 0; shard < kShards; ++shard) {
    if (done.count(static_cast<std::uint32_t>(shard)) != 0) continue;
    EmitShard(resumed, w, shard);
    for (int h = shard * kShardSize; h < (shard + 1) * kShardSize; ++h) {
      HomeInfo info;
      info.id = HomeId{h};
      info.country_code = "US";
      info.reports_uptime = true;
      resumed.register_home(info);
    }
  }
  resumed.finalize_deterministic_order();
  EXPECT_EQ(resumed.homes().size(), static_cast<std::size_t>(kHomes));

  ExpectSameRows<CapacityRecord>(resumed, ram);
  ExpectSameRows<WifiScanRecord>(resumed, ram);
  ExpectSameRows<ThroughputMinute>(resumed, ram);
  ExpectSameRows<DnsLogRecord>(resumed, ram);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bismark::collect
