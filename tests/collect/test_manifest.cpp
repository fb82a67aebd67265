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

/// `payload` as one u32-length-prefixed row: recovery checks row framing,
/// so a committed test section must hold the rows its record claims.
std::string OneRow(const std::string& payload) {
  std::string body;
  core::StoreLe<4>(body, payload.size());
  return body + payload;
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

  /// Append a committed one-row section for `shard` through the real write
  /// path.
  static SectionRef Commit(SpillDir& spill, std::uint32_t shard, std::uint32_t run,
                           const std::string& payload) {
    SegmentLog& log = spill.log_for_worker(0);
    const SectionRef ref = log.append(/*kind=*/0, shard, run, /*rows=*/1, OneRow(payload));
    spill.register_section(0, ref);
    return ref;
  }

  std::string dir_;
};

TEST_F(ManifestRecoveryTest, MissingManifestIsAnEmptyDirectory) {
  fs::create_directories(dir_);
  SpillRecovery rec;
  std::string error;
  ASSERT_TRUE(RecoverSpillDir(dir_, &rec, &error)) << error;
  EXPECT_FALSE(rec.has_config);
  ASSERT_FALSE(rec.diagnostics.empty());
  EXPECT_NE(rec.diagnostics[0].find("no manifest found"), std::string::npos);
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
  ASSERT_TRUE(rec.has_config);
  EXPECT_EQ(rec.config.generation, 0u);
  EXPECT_EQ(rec.config.shard_count, 4u);
  EXPECT_EQ(rec.config.options_blob, "opaque-options");
  EXPECT_EQ(rec.done_shards, (std::vector<std::uint32_t>{1}));
  ASSERT_EQ(rec.homes.size(), 2u);
  EXPECT_EQ(rec.homes[0].id.value, 10);
  EXPECT_EQ(rec.sections_verified, 2u);
  EXPECT_EQ(rec.sections_quarantined, 0u);
  EXPECT_EQ(rec.sections[0].size(), 2u);
  EXPECT_EQ(rec.sections[0][0].bytes, OneRow("section-body-bytes").size());

  // The cheap config-only read agrees.
  ManifestConfig cfg;
  ASSERT_TRUE(ReadManifestConfig(dir_, &cfg, &error)) << error;
  EXPECT_EQ(cfg.options_blob, "opaque-options");
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
  {
    // A crash mid-append: a length prefix promising more bytes than exist.
    std::ofstream out(manifest, std::ios::binary | std::ios::app);
    const char torn[] = {0x40, 0x00, 0x00, 0x00, 'p', 'a', 'r', 't'};
    out.write(torn, sizeof torn);
  }
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
  // A directory in the BSMKMAN2 layout: the same records behind the older
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
    f.put('2');
    f.seekp(0, std::ios::end);
    const char torn[] = {0x40, 0x00, 0x00, 0x00, 'p', 'a', 'r', 't'};
    f.write(torn, sizeof torn);
  }
  const auto snapshot = [this] {
    std::map<std::string, std::string> bytes;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      std::ifstream in(entry.path(), std::ios::binary);
      bytes[entry.path().filename().string()].assign(std::istreambuf_iterator<char>(in), {});
    }
    return bytes;
  };
  const auto before = snapshot();
  ASSERT_EQ(before.at("manifest.bsmkman").substr(0, 8), "BSMKMAN2");

  ManifestConfig cfg;
  std::string error;
  EXPECT_FALSE(ReadManifestConfig(dir_, &cfg, &error));
  EXPECT_NE(error.find("spill manifest version 2 (BSMKMAN2)"), std::string::npos) << error;
  SpillRecovery rec;
  error.clear();
  EXPECT_FALSE(RecoverSpillDir(dir_, &rec, &error));
  EXPECT_NE(error.find("spill manifest version 2 (BSMKMAN2)"), std::string::npos) << error;
  EXPECT_NE(error.find("this build reads version 3"), std::string::npos) << error;
  EXPECT_EQ(snapshot(), before);
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
  EXPECT_EQ(rec.sections[0].size(), 1u);
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
    spill.register_section(0, log.append(0, /*shard=*/0, /*run=*/0, /*rows=*/2,
                                         OneRow("only-one-row")));
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
    SegmentLog& log = spill.log_for_worker(0);
    const SectionRef ref = log.append(0, /*shard=*/1, /*run=*/0, 1, OneRow("gen1-shard1-redo"));
    spill.register_section(0, ref);
    spill.record_shard_done(1, {TestHome(2)});
  }
  SpillRecovery second;
  ASSERT_TRUE(RecoverSpillDir(dir_, &second, &error)) << error;
  EXPECT_EQ(second.done_shards, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(second.sections_quarantined, 0u);
  EXPECT_EQ(second.shards_dropped, 0u);
  ASSERT_EQ(second.sections[0].size(), 2u);
  // Shard 1's surviving section is the generation-1 redo, not the orphan.
  for (const SectionRef& ref : second.sections[0]) {
    if (ref.shard == 1) {
      EXPECT_EQ(ref.bytes, OneRow("gen1-shard1-redo").size());
    }
  }
}

TEST_F(ManifestRecoveryTest, SchemaDriftRefusesToResume) {
  {
    SpillDir spill(TestConfig(dir_));
    ManifestConfig cfg = TestRunConfig(0, 2);
    cfg.schema_fingerprint = cfg.schema_fingerprint ^ 0x1;  // drifted writer
    spill.write_run_config(cfg);
  }
  SpillRecovery rec;
  std::string error;
  EXPECT_FALSE(RecoverSpillDir(dir_, &rec, &error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

}  // namespace
}  // namespace bismark::collect
