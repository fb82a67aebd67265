// IdempotentIngest: at-least-once delivery + (home, seq) dedup must equal
// exactly-once repository contents — including when the same batch stream
// is replayed many times across shard staging buffers.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "collect/export.h"
#include "collect/repository.h"
#include "collect/upload.h"

namespace bismark {
namespace {

using collect::DataRepository;
using collect::DatasetWindows;
using collect::HomeId;
using collect::IdempotentIngest;
using collect::IngestBatch;
using collect::UploadBatch;

const TimePoint kStart = MakeTime({2013, 3, 1});

DatasetWindows Windows() { return DatasetWindows::Compressed(kStart, 2); }

/// A deterministic little batch stream: each home ships three batches of
/// uptime + capacity records with in-window timestamps.
std::vector<UploadBatch> MakeStream(const std::vector<int>& home_ids) {
  std::vector<UploadBatch> stream;
  const DatasetWindows w = Windows();
  for (int id : home_ids) {
    for (std::uint64_t seq = 0; seq < 3; ++seq) {
      UploadBatch batch;
      batch.home = HomeId{id};
      batch.seq = seq;
      for (int k = 0; k < 4; ++k) {
        const TimePoint t = w.uptime.start + Hours(6.0 * (static_cast<double>(seq) * 4 + k));
        batch.records.emplace_back(collect::UptimeRecord{HomeId{id}, t, Hours(1)});
        collect::CapacityRecord cap;
        cap.home = HomeId{id};
        cap.measured = w.capacity.start + Hours(6.0 * (static_cast<double>(seq) * 4 + k));
        batch.records.emplace_back(cap);
      }
      stream.push_back(std::move(batch));
    }
  }
  return stream;
}

std::string ExportBytes(const DataRepository& repo) {
  std::ostringstream out;
  collect::ExportUptime(repo, out);
  collect::ExportCapacity(repo, out);
  return out.str();
}

TEST(IdempotentIngest, CommitsOnceAndRejectsReplays) {
  DataRepository repo(Windows());
  IdempotentIngest gate(repo);
  const auto stream = MakeStream({1});

  EXPECT_TRUE(gate.deliver(stream[0]));
  EXPECT_FALSE(gate.deliver(stream[0]));
  EXPECT_FALSE(gate.deliver(stream[0]));

  EXPECT_EQ(gate.stats().batches_committed, 1u);
  EXPECT_EQ(gate.stats().batches_deduped, 2u);
  EXPECT_EQ(gate.stats().records_committed, stream[0].records.size());
  EXPECT_EQ(repo.uptime().size(), 4u);
  EXPECT_EQ(repo.capacity().size(), 4u);
}

TEST(IdempotentIngest, SameSeqFromDifferentHomesBothCommit) {
  DataRepository repo(Windows());
  IdempotentIngest gate(repo);
  const auto stream = MakeStream({1, 2});  // both homes ship seq 0, 1, 2

  for (const auto& batch : stream) EXPECT_TRUE(gate.deliver(batch));
  EXPECT_EQ(gate.stats().batches_committed, stream.size());
  EXPECT_EQ(gate.stats().batches_deduped, 0u);
}

/// The satellite scenario: replay the whole batch stream N times through
/// per-shard gates (each home pinned to its shard, as in the deployment
/// runner) and require the merged repository to export byte-identically to
/// a single clean delivery.
TEST(IdempotentIngest, NFoldReplayAcrossShardGatesExportsSingleDeliveryBytes) {
  const std::vector<int> shard_a = {1, 2, 3};
  const std::vector<int> shard_b = {4, 5, 6};
  auto stream_a = MakeStream(shard_a);
  auto stream_b = MakeStream(shard_b);

  // Reference: every batch delivered exactly once.
  DataRepository reference(Windows());
  {
    IdempotentIngest gate(reference);
    for (const auto& b : stream_a) gate.deliver(b);
    for (const auto& b : stream_b) gate.deliver(b);
    reference.finalize_deterministic_order();
  }
  const std::string reference_bytes = ExportBytes(reference);
  ASSERT_FALSE(reference_bytes.empty());

  // Replayed: the same stream arrives 4 times, interleaved across the two
  // shard staging buffers, which are then committed like the runner does.
  DataRepository replayed(Windows());
  IngestBatch batch_a = replayed.make_batch();
  IngestBatch batch_b = replayed.make_batch();
  IdempotentIngest gate_a(batch_a);
  IdempotentIngest gate_b(batch_b);
  std::uint64_t deduped = 0;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < stream_a.size(); ++i) {
      deduped += !gate_a.deliver(stream_a[i]);
      deduped += !gate_b.deliver(stream_b[i]);
    }
  }
  replayed.commit(std::move(batch_a));
  replayed.commit(std::move(batch_b));
  replayed.finalize_deterministic_order();

  EXPECT_EQ(deduped, 3u * (stream_a.size() + stream_b.size()));
  EXPECT_EQ(ExportBytes(replayed), reference_bytes);
  EXPECT_EQ(replayed.uptime().size(), reference.uptime().size());
  EXPECT_EQ(replayed.capacity().size(), reference.capacity().size());
}

}  // namespace
}  // namespace bismark
