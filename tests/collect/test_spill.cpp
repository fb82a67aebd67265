// Spill round-trip: a repository routed through spill-to-disk segment
// files must reproduce the in-RAM canonical row order and export bytes
// exactly — including SortKey ties, multi-section merges from a tiny flush
// threshold, and commits arriving in arbitrary shard order. The order and
// export cases run at merge fan-in 2 and 3 (multi-level and partial
// reduces into scratch) as well as the default 256 (no reduce).
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "collect/export.h"
#include "collect/repository.h"
#include "spill_fixture.h"

namespace bismark::collect {
namespace {

using namespace spill_fixture;

template <typename T>
void ExpectSameRows(const DataRepository& ram, const DataRepository& spilled) {
  std::vector<T> got;
  spilled.for_each_row<T>([&](const T& row) { got.push_back(row); });
  EXPECT_EQ(got, ram.rows<T>());
  EXPECT_EQ(spilled.row_count<T>(), ram.rows<T>().size());
}

constexpr std::size_t kFanIns[] = {2, 3, 256};

TEST(SpillRoundTrip, CanonicalOrderMatchesInRam) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto ram = BuildInRam(w);
  for (const std::size_t fan_in : kFanIns) {
    SCOPED_TRACE("merge_fan_in " + std::to_string(fan_in));
    const auto dir = FreshSpillDir("order");
    const auto spilled = BuildSpilled(w, dir, fan_in);

    ASSERT_TRUE(spilled->spilling());
    ASSERT_FALSE(ram->spilling());
    // The tiny threshold must actually have fragmented the data, past the
    // small fan-ins.
    EXPECT_GT(spilled->spill()->sections_written(), static_cast<std::uint64_t>(kShards));
    EXPECT_GT(spilled->spill()->sections_of_kind(kRecordIndexOf<WifiScanRecord>).size(), 9u);

    ExpectSameRows<HeartbeatRun>(*ram, *spilled);
    ExpectSameRows<UptimeRecord>(*ram, *spilled);
    ExpectSameRows<CapacityRecord>(*ram, *spilled);
    ExpectSameRows<DeviceCountRecord>(*ram, *spilled);
    ExpectSameRows<WifiScanRecord>(*ram, *spilled);
    ExpectSameRows<TrafficFlowRecord>(*ram, *spilled);
    ExpectSameRows<ThroughputMinute>(*ram, *spilled);
    EXPECT_EQ(spilled->total_rows(), ram->total_rows());
    // Only the small fan-ins reduce into merge scratch.
    std::lock_guard<std::mutex> lock(spilled->spill()->merge_mutex());
    const std::uint64_t scratch = spilled->spill()->scratch_log().bytes_written();
    if (fan_in == 256) {
      EXPECT_EQ(scratch, 0u);
    } else {
      EXPECT_GT(scratch, 0u);
    }

    std::filesystem::remove_all(dir);
  }
}

TEST(SpillRoundTrip, ExportBytesIdentical) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto export_all = [](const DataRepository& repo) {
    std::ostringstream out;
    ExportHeartbeats(repo, out);
    ExportUptime(repo, out);
    ExportCapacity(repo, out);
    ExportDevices(repo, out);
    ExportWifi(repo, out);
    ExportTrafficFlows(repo, out);
    return out.str();
  };
  const std::string a = export_all(*BuildInRam(w));
  ASSERT_FALSE(a.empty());
  for (const std::size_t fan_in : kFanIns) {
    SCOPED_TRACE("merge_fan_in " + std::to_string(fan_in));
    const auto dir = FreshSpillDir("export");
    EXPECT_EQ(export_all(*BuildSpilled(w, dir, fan_in)), a);
    std::filesystem::remove_all(dir);
  }
}

TEST(SpillRoundTrip, RepeatedStreamingReadsAreStable) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto dir = FreshSpillDir("reread");
  const auto spilled = BuildSpilled(w, dir);

  // for_each_row merges scratch sections lazily; a second pass must see
  // the identical sequence (reads are logically const).
  std::vector<WifiScanRecord> first, second;
  spilled->for_each_row<WifiScanRecord>([&](const WifiScanRecord& r) { first.push_back(r); });
  spilled->for_each_row<WifiScanRecord>([&](const WifiScanRecord& r) { second.push_back(r); });
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), spilled->row_count<WifiScanRecord>());

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bismark::collect
