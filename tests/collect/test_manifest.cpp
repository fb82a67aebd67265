// Write-ahead manifest recovery: replay, torn-tail truncation, mid-flight
// section handling, quarantine, the cross-generation pairing rules, and the
// refusal of a manifest of another version.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "collect/manifest.h"
#include "collect/spill.h"

namespace bismark::collect {
namespace {

namespace fs = std::filesystem;

HomeInfo TestHome(int id) {
  HomeInfo info;
  info.id = HomeId{id};
  info.country_code = "US";
  info.reports_uptime = true;
  return info;
}

SpillConfig TestConfig(const std::string& dir) {
  SpillConfig cfg;
  cfg.dir = dir;
  cfg.budget_bytes = 1 << 20;
  cfg.workers = 2;
  return cfg;
}

/// Test sections hold DNS rows: recovery frames each section's stripes,
/// and the query column gives each section a body of its own length.
constexpr std::uint32_t kDns = kRecordIndexOf<DnsLogRecord>;

DnsLogRecord DnsRow(const std::string& query) {
  DnsLogRecord row;
  row.home = HomeId{1};
  row.query = query;
  return row;
}

/// `rows` as the one-stripe section body SegmentLog::append_rows writes.
std::string StripeBody(const std::vector<DnsLogRecord>& rows) {
  StripeBuilder<DnsLogRecord> stripe;
  for (const DnsLogRecord& row : rows) stripe.add(row);
  std::string body;
  stripe.append_stripe(body);
  return body;
}

ManifestConfig TestRunConfig(std::uint32_t generation, std::uint32_t shards) {
  ManifestConfig cfg;
  cfg.schema_fingerprint = SchemaFingerprint();
  cfg.budget_bytes = 1 << 20;
  cfg.generation = generation;
  cfg.shard_count = shards;
  cfg.options_blob = "opaque-options";
  return cfg;
}

class ManifestRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-process dir: ctest runs suite cases as concurrent processes.
    dir_ = (fs::temp_directory_path() /
            ("bismark_manifest_test-" + std::to_string(::getpid()))).string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Append a committed one-row DNS section for `shard` through the real
  /// write path.
  static SectionRef Commit(SpillDir& spill, std::uint32_t shard, std::uint32_t run,
                           const std::string& query) {
    const DnsLogRecord row = DnsRow(query);
    const SectionRef ref =
        spill.log_for_worker(0).append_rows<DnsLogRecord>(shard, run, std::span(&row, 1));
    spill.register_section(kDns, ref);
    return ref;
  }

  /// Every file of the directory and its bytes.
  [[nodiscard]] std::map<std::string, std::string> DirBytes() const {
    std::map<std::string, std::string> bytes;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      std::ifstream in(entry.path(), std::ios::binary);
      bytes[entry.path().filename().string()].assign(std::istreambuf_iterator<char>(in), {});
    }
    return bytes;
  }

  /// A crash mid-append: a length prefix promising more bytes than exist.
  void AppendTornRecord() const {
    std::ofstream out(dir_ + "/manifest.bsmkman", std::ios::binary | std::ios::app);
    const char torn[] = {0x40, 0x00, 0x00, 0x00, 'p', 'a', 'r', 't'};
    out.write(torn, sizeof torn);
  }

  std::string dir_;
};

TEST_F(ManifestRecoveryTest, DirectoryWithoutRunConfigIsRefusedUntouched) {
  // Nothing says what run wrote the directory: no manifest at all, or one
  // killed before its config record, here with a torn tail besides.
  fs::create_directories(dir_);
  SpillRecovery rec;
  std::string error;
  EXPECT_FALSE(RecoverSpillDir(dir_, &rec, &error));
  EXPECT_NE(error.find("no spill manifest"), std::string::npos) << error;
  { SpillDir spill(TestConfig(dir_)); }  // file records only
  AppendTornRecord();
  const auto before = DirBytes();
  error.clear();
  EXPECT_FALSE(RecoverSpillDir(dir_, &rec, &error));
  EXPECT_NE(error.find("no committed run config"), std::string::npos) << error;
  EXPECT_EQ(DirBytes(), before);
}

TEST_F(ManifestRecoveryTest, CleanRunRoundTrips) {
  {
    SpillDir spill(TestConfig(dir_));
    spill.write_run_config(TestRunConfig(0, 4));
    Commit(spill, /*shard=*/1, /*run=*/0, "section-body-bytes");
    Commit(spill, /*shard=*/1, /*run=*/1, "more-bytes");
    spill.record_shard_done(1, {TestHome(10), TestHome(11)});
    // A checkpoint is an fsync barrier: the manifest gains no record.
    const auto manifest_bytes = fs::file_size(dir_ + "/manifest.bsmkman");
    spill.checkpoint();
    EXPECT_EQ(fs::file_size(dir_ + "/manifest.bsmkman"), manifest_bytes);
  }
  SpillRecovery rec;
  std::string error;
  ASSERT_TRUE(RecoverSpillDir(dir_, &rec, &error)) << error;
  EXPECT_EQ(rec.config.generation, 0u);
  EXPECT_EQ(rec.config.shard_count, 4u);
  EXPECT_EQ(rec.config.options_blob, "opaque-options");
  EXPECT_EQ(rec.done_shards, (std::vector<std::uint32_t>{1}));
  ASSERT_EQ(rec.homes.size(), 2u);
  EXPECT_EQ(rec.homes[0].id.value, 10);
  EXPECT_EQ(rec.sections_verified, 2u);
  EXPECT_EQ(rec.sections_quarantined, 0u);
  EXPECT_EQ(rec.sections[kDns].size(), 2u);
  EXPECT_EQ(rec.sections[kDns][0].bytes, StripeBody({DnsRow("section-body-bytes")}).size());
}

TEST_F(ManifestRecoveryTest, TornManifestTailIsTruncated) {
  {
    SpillDir spill(TestConfig(dir_));
    spill.write_run_config(TestRunConfig(0, 2));
    Commit(spill, 0, 0, "committed");
    spill.record_shard_done(0, {TestHome(1)});
  }
  const std::string manifest = dir_ + "/manifest.bsmkman";
  const auto clean_size = fs::file_size(manifest);
  AppendTornRecord();
  SpillRecovery rec;
  std::string error;
  ASSERT_TRUE(RecoverSpillDir(dir_, &rec, &error)) << error;
  EXPECT_EQ(rec.manifest_bytes_truncated, 8u);
  EXPECT_EQ(fs::file_size(manifest), clean_size);
  EXPECT_EQ(rec.done_shards, (std::vector<std::uint32_t>{0}));
  bool mentioned = false;
  for (const auto& d : rec.diagnostics) {
    mentioned |= d.find("torn manifest tail") != std::string::npos;
  }
  EXPECT_TRUE(mentioned);
}

TEST_F(ManifestRecoveryTest, GarbageManifestIsNotResumable) {
  fs::create_directories(dir_);
  {
    std::ofstream out(dir_ + "/manifest.bsmkman", std::ios::binary);
    out << "this is not a manifest at all";
  }
  SpillRecovery rec;
  std::string error;
  EXPECT_FALSE(RecoverSpillDir(dir_, &rec, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST_F(ManifestRecoveryTest, OlderManifestVersionIsRefusedUntouched) {
  // A directory in the BSMKMAN3 layout: the same records behind the older
  // magic, with a torn manifest tail and an uncommitted segment tail that a
  // recovery would truncate.
  {
    SpillDir spill(TestConfig(dir_));
    spill.write_run_config(TestRunConfig(0, 2));
    Commit(spill, 0, 0, "committed");
    spill.record_shard_done(0, {TestHome(1)});
    Commit(spill, 1, 0, "uncommitted-shard");
  }
  {
    std::fstream f(dir_ + "/manifest.bsmkman", std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(7);
    f.put('3');
  }
  AppendTornRecord();
  const auto before = DirBytes();
  ASSERT_EQ(before.at("manifest.bsmkman").substr(0, 8), "BSMKMAN3");

  SpillRecovery rec;
  std::string error;
  EXPECT_FALSE(RecoverSpillDir(dir_, &rec, &error));
  EXPECT_NE(error.find("spill manifest version 3 (BSMKMAN3)"), std::string::npos) << error;
  EXPECT_NE(error.find("this build reads version 4"), std::string::npos) << error;
  EXPECT_EQ(DirBytes(), before);
}

TEST_F(ManifestRecoveryTest, MidFlightSectionsAreDroppedAndTruncated) {
  SectionRef orphan;
  {
    SpillDir spill(TestConfig(dir_));
    spill.write_run_config(TestRunConfig(0, 2));
    Commit(spill, 0, 0, "kept-section");
    spill.record_shard_done(0, {TestHome(1)});
    // Shard 1 committed a section but crashed before its shard-done record.
    orphan = Commit(spill, 1, 0, "orphaned-section-bytes");
  }
  SpillRecovery rec;
  std::string error;
  ASSERT_TRUE(RecoverSpillDir(dir_, &rec, &error)) << error;
  EXPECT_EQ(rec.done_shards, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(rec.sections[kDns].size(), 1u);
  EXPECT_GT(rec.segment_bytes_truncated, 0u);
  // The orphan's bytes are gone from the segment file: the next generation
  // appends over them and a later recovery must not see stale frames.
  const std::string seg = dir_ + "/" + rec.files[orphan.file];
  EXPECT_LE(fs::file_size(seg), orphan.offset - kSectionHeaderBytes);
}

TEST_F(ManifestRecoveryTest, CorruptSectionQuarantinesOwningShard) {
  SectionRef victim;
  {
    SpillDir spill(TestConfig(dir_));
    spill.write_run_config(TestRunConfig(0, 3));
    victim = Commit(spill, 0, 0, "soon-to-be-flipped");
    spill.record_shard_done(0, {TestHome(1)});
    Commit(spill, 2, 0, "healthy-bytes");
    spill.record_shard_done(2, {TestHome(2)});
  }
  {
    std::fstream f(dir_ + "/seg-g0-w0.bsmkseg",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(victim.offset + 2));
    f.put('X');
  }
  SpillRecovery rec;
  std::string error;
  ASSERT_TRUE(RecoverSpillDir(dir_, &rec, &error)) << error;
  EXPECT_EQ(rec.sections_quarantined, 1u);
  EXPECT_EQ(rec.shards_dropped, 1u);
  EXPECT_EQ(rec.done_shards, (std::vector<std::uint32_t>{2}));
  ASSERT_EQ(rec.homes.size(), 1u);
  EXPECT_EQ(rec.homes[0].id.value, 2);
  bool mentioned = false;
  for (const auto& d : rec.diagnostics) {
    mentioned |= d.find("quarantined") != std::string::npos &&
                 d.find("shard 0 will re-run") != std::string::npos;
  }
  EXPECT_TRUE(mentioned);
}

TEST_F(ManifestRecoveryTest, SectionWhoseRowsDoNotFrameItsBodyIsQuarantined) {
  // CRC and footer agree with the record, but the record claims two rows
  // where the body frames one. Recovery reads a section with the merge's
  // cursor, so it rejects what a merge would reject.
  {
    SpillDir spill(TestConfig(dir_));
    spill.write_run_config(TestRunConfig(0, 1));
    SegmentLog& log = spill.log_for_worker(0);
    spill.register_section(kDns, log.append(kDns, /*shard=*/0, /*run=*/0, /*rows=*/2,
                                            StripeBody({DnsRow("only-one-row")})));
    spill.record_shard_done(0, {TestHome(1)});
  }
  SpillRecovery rec;
  std::string error;
  ASSERT_TRUE(RecoverSpillDir(dir_, &rec, &error)) << error;
  EXPECT_EQ(rec.sections_quarantined, 1u);
  EXPECT_EQ(rec.shards_dropped, 1u);
  EXPECT_TRUE(rec.done_shards.empty());
}

TEST_F(ManifestRecoveryTest, ConflictingConfigRecordsAreAHardError) {
  {
    SpillDir spill(TestConfig(dir_));
    spill.write_run_config(TestRunConfig(0, 2));
  }
  {
    ManifestWriter w;
    w.open(dir_ + "/manifest.bsmkman", /*fresh=*/false);
    ManifestConfig drifted = TestRunConfig(1, 2);
    drifted.options_blob = "different-options";
    w.config(drifted);
    w.sync();
  }
  SpillRecovery rec;
  std::string error;
  EXPECT_FALSE(RecoverSpillDir(dir_, &rec, &error));
  EXPECT_NE(error.find("disagree"), std::string::npos) << error;
}

TEST_F(ManifestRecoveryTest, StaleGenerationSectionsAreNotPairedWithLaterDones) {
  // Regression: shard 1 commits sections in generation 0 but crashes before
  // its shard-done record. A resume (generation 1) re-runs shard 1 and
  // completes it. The gen-0 section records still sit in the manifest; a
  // second recovery must pair shard 1 only with its gen-1 sections — pairing
  // the stale gen-0 ones would duplicate (or, post-truncation, quarantine)
  // the shard.
  {
    SpillDir spill(TestConfig(dir_));
    spill.write_run_config(TestRunConfig(0, 2));
    Commit(spill, 0, 0, "gen0-shard0");
    spill.record_shard_done(0, {TestHome(1)});
    Commit(spill, 1, 0, "gen0-shard1-orphan");  // crash before shard-done
  }
  SpillRecovery first;
  std::string error;
  ASSERT_TRUE(RecoverSpillDir(dir_, &first, &error)) << error;
  ASSERT_EQ(first.done_shards, (std::vector<std::uint32_t>{0}));
  {
    SpillDir spill(TestConfig(dir_), first);
    EXPECT_EQ(spill.generation(), 1u);
    spill.write_run_config(TestRunConfig(1, 2));
    Commit(spill, /*shard=*/1, /*run=*/0, "gen1-shard1-redo");
    spill.record_shard_done(1, {TestHome(2)});
  }
  SpillRecovery second;
  ASSERT_TRUE(RecoverSpillDir(dir_, &second, &error)) << error;
  EXPECT_EQ(second.done_shards, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(second.sections_quarantined, 0u);
  EXPECT_EQ(second.shards_dropped, 0u);
  ASSERT_EQ(second.sections[kDns].size(), 2u);
  // Shard 1's surviving section is the generation-1 redo, not the orphan.
  for (const SectionRef& ref : second.sections[kDns]) {
    if (ref.shard == 1) {
      EXPECT_EQ(ref.bytes, StripeBody({DnsRow("gen1-shard1-redo")}).size());
    }
  }
}

TEST_F(ManifestRecoveryTest, SchemaDriftRefusesToResume) {
  // A drifted writer's directory with a torn manifest tail and an
  // uncommitted segment tail: refused before recovery truncates either.
  {
    SpillDir spill(TestConfig(dir_));
    ManifestConfig cfg = TestRunConfig(0, 2);
    cfg.schema_fingerprint = cfg.schema_fingerprint ^ 0x1;  // drifted writer
    spill.write_run_config(cfg);
    Commit(spill, 0, 0, "committed");
    spill.record_shard_done(0, {TestHome(1)});
    Commit(spill, 1, 0, "uncommitted-shard");
  }
  AppendTornRecord();
  const auto before = DirBytes();
  SpillRecovery rec;
  std::string error;
  EXPECT_FALSE(RecoverSpillDir(dir_, &rec, &error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
  EXPECT_EQ(DirBytes(), before);
}

TEST_F(ManifestRecoveryTest, DecreasingStringEndOffsetIsQuarantined) {
  // A committed DNS section whose CRC and footer agree with its record, but
  // whose query column's end offsets decrease. Only the stripe framing can
  // tell, and it must before any view reads the column's blob.
  std::string body = StripeBody({DnsRow("abc"), DnsRow(""), DnsRow("de")});
  // The offsets (3, 3, 5) follow the u32 row count and the home, when and
  // device_mac columns: 4, 8 and 6 bytes a row.
  const std::size_t second_offset = 4 + 3 * (4 + 8 + 6) + 4;
  ASSERT_EQ(core::LoadLe<4>(body.data() + second_offset), 3u);
  body[second_offset] = 1;  // 3, 1, 5
  {
    DataRepository repo(DatasetWindows::Paper());
    repo.enable_spill(TestConfig(dir_));
    SpillDir& spill = *repo.spill();
    spill.write_run_config(TestRunConfig(0, 2));
    spill.register_section(kDns, spill.log_for_worker(0).append(kDns, /*shard=*/0, /*run=*/0,
                                                                /*rows=*/3, body));
    spill.record_shard_done(0, {TestHome(1)});
    Commit(spill, 1, 0, "healthy");
    spill.record_shard_done(1, {TestHome(2)});
    try {
      repo.for_each_row<DnsLogRecord>([](const DnsLogRecord&) {});
      ADD_FAILURE() << "a decreasing end offset must fail the merge";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("spill: corrupt section"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("string end offsets decrease"), std::string::npos)
          << e.what();
    }
  }
  SpillRecovery rec;
  std::string error;
  ASSERT_TRUE(RecoverSpillDir(dir_, &rec, &error)) << error;
  EXPECT_EQ(rec.sections_quarantined, 1u);
  EXPECT_EQ(rec.shards_dropped, 1u);
  EXPECT_EQ(rec.done_shards, (std::vector<std::uint32_t>{1}));
}

}  // namespace
}  // namespace bismark::collect
