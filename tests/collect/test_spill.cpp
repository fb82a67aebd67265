// Spill round-trip: a repository routed through spill-to-disk segment
// files must reproduce the in-RAM canonical row order and export bytes
// exactly — including SortKey ties, many-section one-level merges from a
// tiny flush threshold, rows longer than a cursor's read-ahead, and commits
// arriving in arbitrary shard order — and read every committed byte once.
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collect/export.h"
#include "collect/manifest.h"
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

TEST(SpillRoundTrip, CanonicalOrderMatchesInRam) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto ram = BuildInRam(w);
  const auto dir = FreshSpillDir("order");
  const auto spilled = BuildSpilled(w, dir);

  ASSERT_TRUE(spilled->spilling());
  ASSERT_FALSE(ram->spilling());
  // The tiny threshold must actually have fragmented the data.
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
  // One read of every kind the fixture emits reads every committed byte,
  // frames included, exactly once.
  EXPECT_EQ(spilled->spill()->bytes_read().load(), spilled->spill()->bytes_spilled());

  std::filesystem::remove_all(dir);
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
  const auto dir = FreshSpillDir("export");
  EXPECT_EQ(export_all(*BuildSpilled(w, dir)), a);
  std::filesystem::remove_all(dir);
}

// A cursor reads ahead at most 16 KiB, so a row with a 20 KiB domain takes
// the path that grows its buffer past the read-ahead. Each such row
// crosses the flush threshold alone, so every section holds one, after 20
// short rows with empty and embedded-NUL domains. It sorts first, so every
// section frames a one-row stripe and then stripes of many rows.
TEST(SpillRoundTrip, RowsLongerThanTheReadAhead) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto emit = [&w](RecordSink& sink, int home_idx) {
    for (int i = 0; i < 3; ++i) {
      TrafficFlowRecord flow;
      flow.home = HomeId{home_idx};
      flow.last_packet = w.traffic.start + Hours(i + 1);
      for (int j = 0; j < 20; ++j) {
        flow.flow = net::FlowId{static_cast<std::uint64_t>(home_idx) * 100 + i * 21 + j};
        flow.first_packet = w.traffic.start + Hours(i) + Minutes(1 + j);
        flow.domain = j % 2 ? std::string("a\0b\0", 4) : std::string();
        sink.add_flow(flow);
      }
      flow.flow = net::FlowId{static_cast<std::uint64_t>(home_idx) * 100 + i * 21 + 20};
      flow.first_packet = w.traffic.start + Hours(i);
      flow.domain = std::string(20 << 10, static_cast<char>('a' + (home_idx + i) % 26));
      sink.add_flow(flow);
    }
  };
  constexpr int kLongHomes = 4;
  DataRepository ram(w);
  IngestBatch all = ram.make_batch();
  for (int h = 0; h < kLongHomes; ++h) emit(all, h);
  ram.commit(std::move(all));
  ram.finalize_deterministic_order();

  const auto dir = FreshSpillDir("long-rows");
  DataRepository spilled(w);
  SpillConfig cfg;
  cfg.dir = dir.string();
  cfg.budget_bytes = 16 << 10;
  cfg.workers = 2;
  spilled.enable_spill(cfg);
  for (int shard = kLongHomes - 1; shard >= 0; --shard) {
    IngestBatch batch = spilled.make_batch();
    batch.attach_spill(spilled.spill(), static_cast<std::uint32_t>(shard),
                       static_cast<std::size_t>(shard % 2));
    emit(batch, shard);
    spilled.commit(std::move(batch));
  }
  spilled.finalize_deterministic_order();
  const auto sections = spilled.spill()->sections_of_kind(kRecordIndexOf<TrafficFlowRecord>);
  ASSERT_EQ(sections.size(), static_cast<std::size_t>(kLongHomes * 3));
  for (const SectionRef& ref : sections) EXPECT_EQ(ref.rows, 21u);
  ExpectSameRows<TrafficFlowRecord>(ram, spilled);

  // A byte flipped in the middle of one long row fails the read closed.
  const SectionRef& victim = sections[sections.size() / 2];
  {
    std::fstream f(spilled.spill()->file_path(victim.file),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(victim.offset + victim.bytes / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(victim.offset + victim.bytes / 2));
    f.write(&byte, 1);
  }
  try {
    spilled.for_each_row<TrafficFlowRecord>([](const TrafficFlowRecord&) {});
    FAIL() << "a flipped byte in a long row must fail the read";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("spill: corrupt"), std::string::npos) << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(SpillRoundTrip, RepeatedStreamingReadsAreStable) {
  const auto w = DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 2);
  const auto dir = FreshSpillDir("reread");
  const auto spilled = BuildSpilled(w, dir);

  // Each for_each_row is a fresh merge over the shared descriptors; a
  // second pass must see the identical sequence (reads are logically const).
  std::vector<WifiScanRecord> first, second;
  spilled->for_each_row<WifiScanRecord>([&](const WifiScanRecord& r) { first.push_back(r); });
  spilled->for_each_row<WifiScanRecord>([&](const WifiScanRecord& r) { second.push_back(r); });
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), spilled->row_count<WifiScanRecord>());

  std::filesystem::remove_all(dir);
}

// A worker's first section and another thread's checkpoint overlap: the
// checkpoint barrier fsyncs every log of the generation while the worker
// appends to one of them. Under ThreadSanitizer this fails if the worker's
// first append still opens its log while the checkpoint reads the
// descriptor.
TEST(SpillCheckpoint, FirstAppendRacesCheckpoint) {
  const auto dir = FreshSpillDir("checkpoint-race");
  SpillConfig cfg;
  cfg.dir = dir.string();
  cfg.budget_bytes = 1 << 20;
  cfg.workers = 2;
  {
    SpillDir spill(cfg);
    ManifestConfig run;
    run.schema_fingerprint = SchemaFingerprint();
    spill.write_run_config(run);  // a directory recovery accepts
    std::thread worker([&spill] { spill.log_for_worker(1).append(0, 0, 0, 0, std::string()); });
    std::thread checkpointer([&spill] { spill.checkpoint(); });
    worker.join();
    checkpointer.join();
    EXPECT_GT(spill.log_for_worker(1).bytes_written(), 0u);
  }
  SpillRecovery rec;
  std::string error;
  ASSERT_TRUE(RecoverSpillDir(dir.string(), &rec, &error)) << error;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bismark::collect
