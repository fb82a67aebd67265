// The finish pass: one read per kind fanned out to the fleet summary, the
// public and full-fidelity CSV exports and the column snapshot. Its outputs
// must equal the one-output calls and the in-RAM repository byte for byte
// at any worker count, from spilled, resident and column-backed rows; each
// spilled kind must be merged exactly once, at most `workers` threads may
// run steps, and a corrupt section or a full disk must fail the whole pass
// with its existing message — never hang a producer on a full queue or
// terminate a consumer thread.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "analysis/fleet.h"
#include "collect/column_snapshot.h"
#include "collect/export.h"
#include "collect/finish.h"
#include "core/io.h"
#include "spill_fixture.h"

namespace bismark::collect {
namespace {

using namespace spill_fixture;
namespace fs = std::filesystem;

DatasetWindows Windows() { return DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2); }

/// Every file of a directory, name -> bytes.
std::map<std::string, std::string> ReadDir(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

/// Every output of one finish, as bytes.
struct Outputs {
  std::string summary;  // SerializeFleetSummary
  std::map<std::string, std::string> public_csv;
  std::map<std::string, std::string> full_csv;
  std::map<std::string, std::string> snapshot;
};

/// All four outputs from one FinishPass.
Outputs FinishInOnePass(const DataRepository& repo, std::size_t workers, const fs::path& out) {
  fs::remove_all(out);
  FinishPass pass(repo, workers);
  analysis::FleetSummarizer summarizer(pass);
  const CsvExport public_csv(pass, (out / "public").string(), CsvView::kRelease);
  const CsvExport full_csv(pass, (out / "full").string(), CsvView::kFull);
  ColumnSnapshotWriter snapshot(pass, (out / "snapshot").string());
  pass.run();
  snapshot.commit();
  Outputs o;
  o.summary = analysis::SerializeFleetSummary(summarizer.take());
  o.public_csv = ReadDir(out / "public");
  o.full_csv = ReadDir(out / "full");
  o.snapshot = ReadDir(out / "snapshot");
  EXPECT_GT(public_csv.rows(), 0u);
  EXPECT_GT(full_csv.rows(), public_csv.rows());
  return o;
}

/// The same outputs from the four one-output entry points.
Outputs FinishOneOutputAtATime(const DataRepository& repo, std::size_t workers,
                               const fs::path& out) {
  fs::remove_all(out);
  Outputs o;
  o.summary = analysis::SerializeFleetSummary(analysis::SummarizeFleet(repo));
  ExportPublicDatasets(repo, (out / "public").string(), workers);
  ExportAllDatasets(repo, (out / "full").string(), workers);
  std::string error;
  EXPECT_TRUE(SaveColumnSnapshot(repo, (out / "snapshot").string(), &error, workers)) << error;
  o.public_csv = ReadDir(out / "public");
  o.full_csv = ReadDir(out / "full");
  o.snapshot = ReadDir(out / "snapshot");
  return o;
}

void ExpectSameOutputs(const Outputs& a, const Outputs& b) {
  EXPECT_EQ(a.summary, b.summary);
  EXPECT_EQ(a.public_csv, b.public_csv);
  EXPECT_EQ(a.full_csv, b.full_csv);
  EXPECT_EQ(a.snapshot, b.snapshot);
}

class FinishPassTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void TearDown() override {
    core::ClearIoFaults();
    fs::remove_all(dir_);
  }

  fs::path dir_ = FreshSpillDir("finish");
};

TEST_P(FinishPassTest, OnePassMatchesOneOutputCallsAndInRam) {
  const std::size_t workers = GetParam();
  const auto ram = BuildInRam(Windows());
  const auto spilled = BuildSpilled(Windows(), dir_ / "spill", /*merge_fan_in=*/3);

  const Outputs one_pass = FinishInOnePass(*spilled, workers, dir_ / "pass");
  ASSERT_EQ(one_pass.public_csv.size(), 5u);
  ASSERT_FALSE(one_pass.snapshot.empty());
  ExpectSameOutputs(one_pass, FinishOneOutputAtATime(*spilled, workers, dir_ / "single"));
  ExpectSameOutputs(one_pass, FinishOneOutputAtATime(*ram, workers, dir_ / "ram"));
  ExpectSameOutputs(one_pass, FinishInOnePass(*ram, workers, dir_ / "ram-pass"));
  // The snapshot the pass wrote, finished again column-backed.
  std::string error;
  const auto columns = OpenColumnSnapshot((dir_ / "pass" / "snapshot").string(), &error);
  ASSERT_NE(columns, nullptr) << error;
  ExpectSameOutputs(one_pass, FinishInOnePass(*columns, workers, dir_ / "columns-pass"));
}

TEST_P(FinishPassTest, MergesEachSpilledKindOnce) {
  const std::size_t workers = GetParam();
  const auto scratch_bytes = [](const DataRepository& repo) {
    std::lock_guard<std::mutex> lock(repo.spill()->merge_mutex());
    return repo.spill()->scratch_log().bytes_written();
  };
  // Reference: one plain read of every kind.
  const auto once = BuildSpilled(Windows(), dir_ / "once", /*merge_fan_in=*/3);
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    once->for_each_row<T>([](const T&) {});
  });
  const std::uint64_t one_read = scratch_bytes(*once);
  ASSERT_GT(one_read, 0u);

  const auto spilled = BuildSpilled(Windows(), dir_ / "spill", /*merge_fan_in=*/3);
  FinishInOnePass(*spilled, workers, dir_ / "pass");
  EXPECT_EQ(scratch_bytes(*spilled), one_read);
}

TEST_P(FinishPassTest, KeepsAtMostWorkersThreadsBusy) {
  const std::size_t workers = GetParam();
  const auto spilled = BuildSpilled(Windows(), dir_ / "spill", /*merge_fan_in=*/3);
  FinishPass pass(*spilled, workers);
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  const auto observe = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
    }
    const int now = ++running;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    --running;
  };
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    for (int consumer = 0; consumer < 3; ++consumer) {
      pass.add<T>([&](std::span<const T>) { observe(); }, observe);
    }
  });
  pass.run();
  EXPECT_LE(threads.size(), workers);
  EXPECT_LE(peak.load(), static_cast<int>(workers));
  if (workers == 1) {
    EXPECT_EQ(threads, std::set<std::thread::id>{std::this_thread::get_id()});
  }
}

TEST_P(FinishPassTest, CorruptWifiSectionFailsThePass) {
  const auto spilled = BuildSpilled(Windows(), dir_ / "spill", /*merge_fan_in=*/3);
  const auto sections = spilled->spill()->sections_of_kind(kRecordIndexOf<WifiScanRecord>);
  ASSERT_FALSE(sections.empty());
  const SectionRef& victim = sections[sections.size() / 2];
  {
    std::fstream f(spilled->spill()->file_path(victim.file),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(victim.offset + victim.bytes / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(victim.offset + victim.bytes / 2));
    f.write(&byte, 1);
  }
  try {
    FinishInOnePass(*spilled, GetParam(), dir_ / "pass");
    FAIL() << "a corrupt section must fail the pass";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("spill: corrupt"), std::string::npos) << e.what();
  }
}

TEST_P(FinishPassTest, FullDiskOnTheColumnWriterFailsThePass) {
  const auto spilled = BuildSpilled(Windows(), dir_ / "spill", /*merge_fan_in=*/3);
  core::IoFaultPlan plan;
  plan.kind = core::IoFaultPlan::Kind::kEnospc;
  plan.at_bytes = 4096;
  plan.path_substr = ".bsmkcol";
  core::InstallIoFaultPlan(plan);
  try {
    FinishInOnePass(*spilled, GetParam(), dir_ / "pass");
    FAIL() << "a full disk must fail the pass";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("No space left"), std::string::npos) << e.what();
  }
  EXPECT_GT(core::CurrentIoFaultStats().faults_fired, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workers, FinishPassTest, ::testing::Values(1u, 4u),
                         [](const auto& info) { return "w" + std::to_string(info.param); });

TEST(FinishPass, PassWithoutConsumersIsANoOp) {
  const auto ram = BuildInRam(Windows());
  FinishPass pass(*ram, 4);
  pass.run();
}

}  // namespace
}  // namespace bismark::collect
