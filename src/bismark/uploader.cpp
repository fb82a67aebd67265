#include "bismark/uploader.h"

#include <algorithm>
#include <cassert>

namespace bismark::gateway {

// --- UploadSpool -----------------------------------------------------------

void UploadSpool::push(collect::Record r) {
  assert(!sealed_ && "UploadSpool: no pushes after seal()");
  ++accepted_;
  staged_.push_back(std::move(r));
}

void UploadSpool::seal() {
  if (sealed_) return;
  sealed_ = true;
  // Stable: simultaneous records keep their (deterministic) service order.
  std::stable_sort(staged_.begin(), staged_.end(),
                   [](const collect::Record& a, const collect::Record& b) {
                     return collect::RecordTime(a) < collect::RecordTime(b);
                   });
}

void UploadSpool::arrive_until(TimePoint now) {
  assert(sealed_ && "UploadSpool: seal() before replaying arrivals");
  while (next_arrival_ < staged_.size() &&
         collect::RecordTime(staged_[next_arrival_]) <= now) {
    queue_.push_back(std::move(staged_[next_arrival_]));
    ++next_arrival_;
    if (queue_.size() > capacity_) {
      ++dropped_.by_kind[queue_.front().index()];
      ++dropped_.total;
      queue_.pop_front();
    }
  }
  // Reclaim the staging prefix once fully replayed.
  if (next_arrival_ == staged_.size() && !staged_.empty()) {
    staged_.clear();
    next_arrival_ = 0;
  }
}

std::vector<collect::Record> UploadSpool::take(std::size_t max_records) {
  const std::size_t n = std::min(max_records, queue_.size());
  std::vector<collect::Record> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return out;
}

// --- Uploader --------------------------------------------------------------

Uploader::Uploader(sim::Engine& engine, UploadSpool& spool, const net::FaultPlan& plan,
                   collect::IdempotentIngest& ingest, collect::HomeId home,
                   UploadPolicy policy, Rng rng)
    : engine_(engine),
      spool_(spool),
      plan_(plan),
      ingest_(ingest),
      home_(home),
      policy_(policy),
      rng_(rng) {}

void Uploader::attach_obs(obs::MetricsShard* shard) {
#if BISMARK_OBS_ENABLED
  if (shard != nullptr) {
    // Occupancy as a fraction of capacity: ten 10%-wide buckets.
    occupancy_ = shard->histogram("bismark_spool_occupancy_ratio",
                                  obs::HistoSpec{0.0, 1.0, 10});
    // Delays cap at 6 h (policy default); half-hour buckets cover the range.
    backoff_minutes_ = shard->histogram("bismark_upload_backoff_delay_minutes",
                                        obs::HistoSpec{0.0, 360.0, 12});
  }
#else
  (void)shard;
#endif
}

Duration Uploader::BackoffDelay(const UploadPolicy& policy, int attempt, Rng& rng) {
  Duration d = policy.backoff_base;
  for (int i = 1; i < attempt && d < policy.backoff_cap; ++i) d = d * 2;
  d = std::min(d, policy.backoff_cap);
  if (policy.jitter_frac > 0.0) {
    d = Millis(static_cast<std::int64_t>(
        static_cast<double>(d.ms) *
        rng.uniform(1.0 - policy.jitter_frac, 1.0 + policy.jitter_frac)));
  }
  return d;
}

void Uploader::start(Interval window) {
  spool_.seal();
  // Real deployments jitter their upload cron; a deterministic per-home
  // phase keeps 126 homes from flushing in lockstep.
  const Duration phase = Millis(rng_.uniform_int(0, policy_.flush_period.ms - 1));
  flush_handle_ =
      engine_.schedule_every(policy_.flush_period, [this](TimePoint t) { flush(t); }, phase);
  // A sweep exactly at window end picks up the tail regardless of phase.
  engine_.schedule_at(window.end, [this] { flush(engine_.now()); });
}

void Uploader::stop() {
  flush_handle_.cancel();
  retry_handle_.cancel();
}

std::uint64_t Uploader::stranded() const {
  return spool_.queued() + spool_.staged_remaining() + in_flight_records();
}

void Uploader::flush(TimePoint now) {
  spool_.arrive_until(now);
#if BISMARK_OBS_ENABLED
  occupancy_.observe(static_cast<double>(spool_.queued()) /
                     static_cast<double>(spool_.capacity()));
#endif
  if (in_flight_) return;  // the retry timer owns the channel
  pump(now);
}

void Uploader::pump(TimePoint now) {
  while (!in_flight_) {
    auto records = spool_.take(policy_.max_batch_records);
    if (records.empty()) return;
    in_flight_ = collect::UploadBatch{home_, next_seq_++, std::move(records)};
    attempt_in_flight(now);
  }
}

void Uploader::attempt_in_flight(TimePoint now) {
  ++stats_.attempts;
  const net::DeliveryOutcome outcome = plan_.attempt(now, rng_);
  switch (outcome) {
    case net::DeliveryOutcome::kDelivered:
    case net::DeliveryOutcome::kLostAck:
      // The batch reached the collector either way; only the ack differs.
      if (ingest_.deliver(*in_flight_)) {
        ++stats_.batches_delivered;
        stats_.records_delivered += in_flight_->records.size();
      } else {
        ++stats_.duplicates_sent;
      }
      if (outcome == net::DeliveryOutcome::kDelivered) {
        in_flight_.reset();
        failed_attempts_ = 0;
      } else {
        schedule_retry();
      }
      break;
    case net::DeliveryOutcome::kLostRequest:
    case net::DeliveryOutcome::kCollectorDown:
      schedule_retry();
      break;
  }
}

void Uploader::schedule_retry() {
  ++failed_attempts_;
  ++stats_.retries;
  const Duration delay = BackoffDelay(policy_, failed_attempts_, rng_);
#if BISMARK_OBS_ENABLED
  backoff_minutes_.observe(delay.minutes());
#endif
  retry_handle_ = engine_.schedule_after(delay, [this] {
    const TimePoint at = engine_.now();
    spool_.arrive_until(at);
    attempt_in_flight(at);
    if (!in_flight_) pump(at);  // acked: drain backlog accumulated meanwhile
  });
}

}  // namespace bismark::gateway
