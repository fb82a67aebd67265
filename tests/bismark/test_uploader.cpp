// Uploader: deterministic retry/backoff scheduling, clean cancellation via
// EventHandle, store-and-forward recovery across collector outages, and the
// two histograms it records into an attached metrics shard.
#include <gtest/gtest.h>

#include <span>

#include "bismark/uploader.h"
#include "obs/metrics.h"
#include "sim/engine.h"

namespace bismark {
namespace {

using gateway::Uploader;
using gateway::UploadPolicy;
using gateway::UploadSpool;

/// Minimal sink counting committed rows (the repository stand-in).
class CountingSink final : public collect::RecordSink {
 public:
  void add_record(collect::Record) override { ++rows; }
  std::uint64_t rows{0};
};

collect::UptimeRecord Uptime(double at_hours) {
  return {collect::HomeId{7}, TimePoint{0} + Hours(at_hours), Hours(1)};
}

UploadPolicy FastPolicy() {
  UploadPolicy policy;
  policy.flush_period = Hours(1);
  policy.backoff_base = Minutes(1);
  policy.backoff_cap = Minutes(30);
  policy.jitter_frac = 0.0;  // exact timing for the scheduling tests
  return policy;
}

TEST(UploaderBackoff, ExactExponentialSequenceWithoutJitter) {
  UploadPolicy policy;
  policy.backoff_base = Minutes(1);
  policy.backoff_cap = Minutes(8);
  policy.jitter_frac = 0.0;
  Rng rng(1);

  const double expected_minutes[] = {1, 2, 4, 8, 8, 8};
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(Uploader::BackoffDelay(policy, attempt, rng).minutes(),
              expected_minutes[attempt - 1])
        << "attempt " << attempt;
  }
}

TEST(UploaderBackoff, JitterStaysInBoundsAndIsDeterministic) {
  UploadPolicy policy;
  policy.backoff_base = Minutes(2);
  policy.backoff_cap = Hours(4);
  policy.jitter_frac = 0.25;

  Rng a = Rng::Stream(99, 0xB10AD, 41);
  Rng b = Rng::Stream(99, 0xB10AD, 41);
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const Duration nominal =
        std::min(policy.backoff_base * (std::int64_t{1} << std::min(attempt - 1, 20)),
                 policy.backoff_cap);
    const Duration da = Uploader::BackoffDelay(policy, attempt, a);
    const Duration db = Uploader::BackoffDelay(policy, attempt, b);
    EXPECT_EQ(da, db) << "same stream must give the same jitter";
    EXPECT_GE(da.ms, static_cast<std::int64_t>(0.75 * static_cast<double>(nominal.ms)));
    EXPECT_LT(da.ms, static_cast<std::int64_t>(1.25 * static_cast<double>(nominal.ms)) + 1);
  }
}

TEST(Uploader, LostAckCommitsOnceAndResendsAreDeduped) {
  sim::Engine engine(TimePoint{0});
  UploadSpool spool(64);
  spool.add_uptime(Uptime(0.5));

  // Every ack is lost: the collector commits, the gateway keeps resending.
  net::FaultConfig faults;
  faults.ack_loss_prob = 1.0;
  const net::FaultPlan plan(faults, IntervalSet{});

  CountingSink sink;
  collect::IdempotentIngest ingest(sink);
  Uploader uploader(engine, spool, plan, ingest, collect::HomeId{7}, FastPolicy(),
                    Rng::Stream(1, 2, 3));
  uploader.start(Interval{TimePoint{0}, TimePoint{0} + Hours(12)});
  engine.run_until(TimePoint{0} + Hours(12));
  uploader.stop();

  EXPECT_EQ(sink.rows, 1u) << "exactly-once repository contents";
  EXPECT_EQ(ingest.stats().batches_committed, 1u);
  EXPECT_GT(ingest.stats().batches_deduped, 5u) << "resends kept arriving";
  EXPECT_EQ(uploader.stats().records_delivered, 1u);
  EXPECT_EQ(uploader.stats().duplicates_sent, ingest.stats().batches_deduped);
  EXPECT_EQ(uploader.stats().attempts,
            1 + ingest.stats().batches_deduped);
}

TEST(Uploader, CancelStopsAPendingRetryCleanly) {
  sim::Engine engine(TimePoint{0});
  UploadSpool spool(64);
  spool.add_uptime(Uptime(0.5));

  net::FaultConfig faults;
  faults.upload_loss_prob = 1.0;  // nothing ever gets through
  const net::FaultPlan plan(faults, IntervalSet{});

  CountingSink sink;
  collect::IdempotentIngest ingest(sink);
  Uploader uploader(engine, spool, plan, ingest, collect::HomeId{7}, FastPolicy(),
                    Rng::Stream(1, 2, 4));
  uploader.start(Interval{TimePoint{0}, TimePoint{0} + Days(2)});

  // Let the first flush fail and a backoff retry get armed.
  engine.run_until(TimePoint{0} + Hours(2));
  ASSERT_TRUE(uploader.retry_pending());
  const auto attempts_before = uploader.stats().attempts;
  ASSERT_GT(attempts_before, 0u);

  // stop() cancels both the flush schedule and the armed retry; running the
  // engine on must execute neither.
  uploader.stop();
  EXPECT_FALSE(uploader.retry_pending());
  engine.run_until(TimePoint{0} + Days(3));
  EXPECT_EQ(uploader.stats().attempts, attempts_before);
  EXPECT_EQ(sink.rows, 0u);
  EXPECT_EQ(uploader.in_flight_records(), 1u) << "batch still parked in the transmit buffer";
  EXPECT_EQ(uploader.stranded(), 1u);
}

TEST(Uploader, RecoversAllRecordsAfterCollectorOutage) {
  sim::Engine engine(TimePoint{0});
  UploadSpool spool(4096);
  // One record per hour across two days; the collector is dark for most of
  // the first (hours 2..30).
  for (int h = 0; h < 48; ++h) spool.add_uptime(Uptime(h + 0.25));
  IntervalSet outage;
  outage.add(TimePoint{0} + Hours(2), TimePoint{0} + Hours(30));
  const net::FaultPlan plan(net::FaultConfig{}, outage);

  CountingSink sink;
  collect::IdempotentIngest ingest(sink);
  Uploader uploader(engine, spool, plan, ingest, collect::HomeId{7}, FastPolicy(),
                    Rng::Stream(1, 2, 5));
  uploader.start(Interval{TimePoint{0}, TimePoint{0} + Hours(48)});

  // While the collector is down, nothing new lands.
  engine.run_until(TimePoint{0} + Hours(29));
  const auto committed_during_outage = ingest.stats().records_committed;
  EXPECT_LT(committed_during_outage, 4u) << "only pre-outage flushes may have landed";

  // After it returns, the backlog drains and the tail arrives on cadence.
  engine.run_until(TimePoint{0} + Hours(50));
  uploader.stop();
  EXPECT_EQ(ingest.stats().records_committed, 48u) << "no loss with spool headroom";
  EXPECT_EQ(sink.rows, 48u);
  EXPECT_EQ(spool.dropped().total, 0u);
  EXPECT_EQ(uploader.stranded(), 0u);
  EXPECT_GT(uploader.stats().retries, 0u) << "the outage was survived by retrying";
}

TEST(Uploader, AttachedShardHistogramsCountFlushesAndRetries) {
  sim::Engine engine(TimePoint{0});
  UploadSpool spool(4096);
  for (int h = 0; h < 48; ++h) spool.add_uptime(Uptime(h + 0.25));
  IntervalSet outage;
  outage.add(TimePoint{0} + Hours(2), TimePoint{0} + Hours(30));
  const net::FaultPlan plan(net::FaultConfig{}, outage);

  CountingSink sink;
  collect::IdempotentIngest ingest(sink);
  Uploader uploader(engine, spool, plan, ingest, collect::HomeId{7}, FastPolicy(),
                    Rng::Stream(1, 2, 5));
  obs::MetricsShard shard;
  uploader.attach_obs(&shard);
  uploader.start(Interval{TimePoint{0}, TimePoint{0} + Hours(48)});
  engine.run_until(TimePoint{0} + Hours(50));
  uploader.stop();
  ASSERT_GT(uploader.stats().retries, 0u) << "the outage must arm retries";

  const obs::MetricsSnapshot m =
      obs::MergeShards(std::span<const obs::MetricsShard>(&shard, 1));
#if BISMARK_OBS_ENABLED
  ASSERT_EQ(m.histograms.size(), 2u);
  EXPECT_EQ(m.histograms.at("bismark_upload_backoff_delay_minutes").count,
            uploader.stats().retries)
      << "one observation per armed retry";
  EXPECT_GT(m.histograms.at("bismark_spool_occupancy_ratio").count, 0u)
      << "one observation per flush";
#else
  EXPECT_TRUE(m.histograms.empty()) << "BISMARK_OBS=OFF registers no histogram";
#endif
}

TEST(Uploader, UndersizedSpoolDropsExactlyTheExcessDuringOutage) {
  sim::Engine engine(TimePoint{0});
  constexpr std::size_t kCapacity = 10;
  UploadSpool spool(kCapacity);
  // 40 hourly records, collector down for the whole measurement span: the
  // live queue can only ever hold the newest 10.
  for (int h = 0; h < 40; ++h) spool.add_uptime(Uptime(h + 0.25));
  IntervalSet outage;
  outage.add(TimePoint{0}, TimePoint{0} + Hours(41));
  const net::FaultPlan plan(net::FaultConfig{}, outage);

  CountingSink sink;
  collect::IdempotentIngest ingest(sink);
  Uploader uploader(engine, spool, plan, ingest, collect::HomeId{7}, FastPolicy(),
                    Rng::Stream(1, 2, 6));
  uploader.start(Interval{TimePoint{0}, TimePoint{0} + Hours(40)});
  engine.run_until(TimePoint{0} + Hours(48));
  uploader.stop();

  // The first batch taken stays parked in flight through the outage while
  // later arrivals contend for the bounded queue; once the collector is
  // back (hour 41) the retry lands it and the surviving queue drains. The
  // drop ledger must account for the difference exactly.
  EXPECT_EQ(sink.rows + spool.dropped().total + uploader.stranded(), 40u)
      << "ledger + strands account for every record";
  EXPECT_EQ(sink.rows, ingest.stats().records_committed);
  EXPECT_GT(spool.dropped().total, 0u);
  EXPECT_EQ(uploader.stranded(), 0u) << "collector returned before the run ended";
  EXPECT_EQ(spool.dropped().by_kind[1], spool.dropped().total) << "all drops were uptime";
}

}  // namespace
}  // namespace bismark
