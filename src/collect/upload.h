// At-least-once upload batches and the collector's idempotent ingest gate.
//
// The gateway's store-and-forward uploader (bismark/uploader.h) ships
// measurement records in batches and retries until it sees an ack. Retries
// after a lost ack mean the same batch can arrive twice, so the collector
// dedupes by (home, batch sequence number) before committing anything to a
// RecordSink. At-least-once delivery + idempotent commit = exactly-once
// repository contents, which is what preserves the byte-identical export
// guarantee of the sharded runner under fault injection.
//
// The Record variant itself, RecordTime, and RecordKindName are derived
// from the schema typelist (collect/schema.h); record delivery is the
// sink's single add_record dispatch point (collect/sink.h).
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "collect/schema.h"
#include "collect/sink.h"

namespace bismark::collect {

/// One gateway->collector transfer unit. `seq` increases per home as
/// batches are first transmitted; a retry resends the same seq, which is
/// what lets the ingest gate recognise duplicates.
struct UploadBatch {
  HomeId home;
  std::uint64_t seq{0};
  std::vector<Record> records;
};

/// Collector-side dedup gate in front of any RecordSink.
class IdempotentIngest {
 public:
  explicit IdempotentIngest(RecordSink& sink) : sink_(&sink) {}

  /// Commit the batch's records unless (home, seq) was already committed.
  /// Returns true when the records were committed, false on a duplicate.
  bool deliver(const UploadBatch& batch);

  struct Stats {
    std::uint64_t batches_committed{0};
    std::uint64_t batches_deduped{0};
    std::uint64_t records_committed{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  RecordSink* sink_;
  std::set<std::pair<int, std::uint64_t>> seen_;  // (home id, batch seq)
  Stats stats_;
};

}  // namespace bismark::collect
