// Store-and-forward upload pipeline on the gateway.
//
// The paper's routers do not stream their periodic measurements — they log
// locally and upload in batches, surviving collector outages and flaky
// uplinks (Section 3.2.2/3.3). This module is that machinery: every
// measurement service writes through a bounded UploadSpool instead of
// straight into a RecordSink, and an Uploader flushes spooled records on a
// Table-2-style cadence via the sim engine, retrying failed uploads with
// exponential backoff + jitter. When the spool fills — a long collector
// outage, say — it degrades gracefully by dropping the oldest records into
// a counted, queryable ledger rather than blocking the services.
//
// Heartbeats are the deliberate exception: they are live liveness packets
// (a spooled heartbeat would be a contradiction), so the deployment keeps
// sending them through collect::CollectionServer directly.
#pragma once

#include <array>
#include <deque>
#include <optional>
#include <vector>

#include "collect/upload.h"
#include "core/rng.h"
#include "net/fault_plan.h"
#include "obs/metrics.h"
#include "sim/engine.h"

namespace bismark::gateway {

/// Per-kind and total counts of records the bounded spool discarded.
struct SpoolDropLedger {
  std::array<std::uint64_t, collect::kRecordKinds> by_kind{};
  std::uint64_t total{0};
};

/// A bounded, time-aware store-and-forward buffer with drop-oldest
/// overflow. Producers (the measurement services) write records through the
/// RecordSink interface ahead of time; the uploader then replays them
/// against the simulated clock: a record only occupies spool capacity once
/// its measurement timestamp has passed, and leaves it when an upload batch
/// takes it.
class UploadSpool final : public collect::RecordSink {
 public:
  explicit UploadSpool(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

  // RecordSink — stages the record (keyed by its measurement timestamp).
  // One override covers every record kind; the drop ledger below is sized
  // by the same typelist, so a new kind cannot miss a ledger slot.
  void add_record(collect::Record r) override { push(std::move(r)); }

  /// Impose the global arrival order on staged records (stable sort by
  /// measurement timestamp — producers append service-by-service, so the
  /// staging area is only sorted per service). Must be called once, before
  /// the first arrive_until(); further pushes are rejected afterwards.
  void seal();

  /// Admit staged records with timestamp <= now into the bounded live
  /// queue, dropping the oldest queued record (into the ledger) for each
  /// admission beyond capacity.
  void arrive_until(TimePoint now);

  /// Pop up to `max_records` from the front of the live queue.
  [[nodiscard]] std::vector<collect::Record> take(std::size_t max_records);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  /// Staged records whose arrival time has not been replayed yet.
  [[nodiscard]] std::size_t staged_remaining() const { return staged_.size() - next_arrival_; }
  /// Total records ever accepted through the RecordSink interface.
  [[nodiscard]] std::uint64_t accepted() const { return accepted_; }
  [[nodiscard]] const SpoolDropLedger& dropped() const { return dropped_; }

 private:
  void push(collect::Record r);

  std::size_t capacity_;
  bool sealed_{false};
  std::vector<collect::Record> staged_;  // arrival-ordered once sealed
  std::size_t next_arrival_{0};
  std::deque<collect::Record> queue_;    // live, bounded
  std::uint64_t accepted_{0};
  SpoolDropLedger dropped_;
};

/// Upload cadence and retry policy (defaults sized for the Table 2 service
/// cadences: a 6 h flush holds at most a handful of device censuses and a
/// few dozen WiFi scans per batch).
struct UploadPolicy {
  std::size_t spool_capacity{8192};
  Duration flush_period{Hours(6)};
  std::size_t max_batch_records{512};
  /// Exponential backoff: base * 2^(attempt-1), capped, times a jitter
  /// factor drawn uniformly from [1 - jitter_frac, 1 + jitter_frac).
  Duration backoff_base{Minutes(1)};
  Duration backoff_cap{Hours(6)};
  double jitter_frac{0.25};
  /// How long past the collection window the uploader keeps draining, so
  /// records spooled during a tail-end outage still get delivered.
  Duration drain_grace{Days(2)};
};

/// Flushes one home's spool through a FaultPlan-governed path into the
/// collector's idempotent ingest gate, entirely on the sim engine's clock.
/// At-least-once: a batch is resent (same sequence number) until an ack is
/// observed; the ingest gate turns the resulting duplicates into
/// exactly-once repository contents. All randomness (jitter, loss, latency)
/// comes from the per-home Rng handed in, so behaviour is a pure function
/// of (fault seed, home id).
class Uploader {
 public:
  Uploader(sim::Engine& engine, UploadSpool& spool, const net::FaultPlan& plan,
           collect::IdempotentIngest& ingest, collect::HomeId home, UploadPolicy policy,
           Rng rng);

  Uploader(const Uploader&) = delete;
  Uploader& operator=(const Uploader&) = delete;

  /// Hook this uploader into a metrics shard. Resolves the handles once
  /// (cold); afterwards each flush samples spool occupancy into
  /// `bismark_spool_occupancy_ratio` and each armed retry feeds
  /// `bismark_upload_backoff_delay_minutes`. Compiles to nothing under
  /// BISMARK_OBS=OFF. Call before start(); `shard` may be null.
  void attach_obs(obs::MetricsShard* shard);

  /// Seal the spool and schedule periodic flushes over `window` (plus the
  /// drain grace, bounded by how far the caller runs the engine). The first
  /// flush lands at a deterministic per-home phase inside one period.
  void start(Interval window);

  /// Cancel the flush schedule and any pending retry. Safe to call twice.
  void stop();

  struct Stats {
    std::uint64_t attempts{0};            ///< transmissions, incl. retransmissions
    std::uint64_t batches_delivered{0};   ///< batches committed by the collector
    std::uint64_t records_delivered{0};
    std::uint64_t retries{0};             ///< backoff timers armed
    std::uint64_t duplicates_sent{0};     ///< retransmissions the gate deduped
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] bool retry_pending() const { return retry_handle_.active(); }
  /// Records in the transmit buffer awaiting an ack (0 or one batch).
  [[nodiscard]] std::size_t in_flight_records() const {
    return in_flight_ ? in_flight_->records.size() : 0;
  }
  /// Accepted records that were neither delivered nor dropped when the
  /// engine stopped: still queued, staged, or in flight.
  [[nodiscard]] std::uint64_t stranded() const;

  /// Deterministic backoff delay for the `attempt`-th consecutive failure
  /// (attempt >= 1). Exposed for the exact-sequence unit tests.
  [[nodiscard]] static Duration BackoffDelay(const UploadPolicy& policy, int attempt,
                                             Rng& rng);

 private:
  void flush(TimePoint now);
  void pump(TimePoint now);
  void attempt_in_flight(TimePoint now);
  void schedule_retry();

  sim::Engine& engine_;
  UploadSpool& spool_;
  const net::FaultPlan& plan_;
  collect::IdempotentIngest& ingest_;
  collect::HomeId home_;
  UploadPolicy policy_;
  Rng rng_;
  std::uint64_t next_seq_{0};
  std::optional<collect::UploadBatch> in_flight_;
  int failed_attempts_{0};
  sim::EventHandle flush_handle_;
  sim::EventHandle retry_handle_;
  Stats stats_;

#if BISMARK_OBS_ENABLED
  obs::Histo occupancy_;          // spool fill fraction, sampled per flush
  obs::Histo backoff_minutes_;    // armed backoff delays
#endif
};

}  // namespace bismark::gateway
