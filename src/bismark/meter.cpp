#include "bismark/meter.h"

#include <algorithm>

namespace bismark::gateway {

namespace {
constexpr std::int64_t kMinuteMs = 60000;
constexpr std::int64_t kSecondMs = 1000;
}  // namespace

ThroughputMeter::ThroughputMeter(collect::HomeId home, MinuteCallback cb)
    : home_(home), cb_(std::move(cb)) {}

void ThroughputMeter::flush_bucket() {
  if (bucket_minute_ < 0) return;
  if (cb_ && (bucket_.bytes_up.count > 0 || bucket_.bytes_down.count > 0)) cb_(bucket_);
  bucket_ = collect::ThroughputMinute{};
  bucket_minute_ = -1;
}

void ThroughputMeter::roll_to_minute(std::int64_t minute_index, TimePoint minute_start) {
  if (minute_index == bucket_minute_) return;
  flush_bucket();
  bucket_minute_ = minute_index;
  bucket_.home = home_;
  bucket_.minute_start = minute_start;
}

void ThroughputMeter::finalize_second() {
  // A completed second's byte count is the "per-second throughput" sample
  // whose maximum the paper reports each minute (Section 6.2).
  if (sec_bytes_up_ > 0.0 || sec_bytes_down_ > 0.0) {
    bucket_.peak_up_bps = std::max(bucket_.peak_up_bps, sec_bytes_up_ * 8.0);
    bucket_.peak_down_bps = std::max(bucket_.peak_down_bps, sec_bytes_down_ * 8.0);
  }
  sec_bytes_up_ = 0.0;
  sec_bytes_down_ = 0.0;
}

void ThroughputMeter::integrate(TimePoint now) {
  if (!started_) {
    started_ = true;
    last_update_ = now;
    current_second_ = now.ms / kSecondMs;
    roll_to_minute(now.ms / kMinuteMs, TimePoint{(now.ms / kMinuteMs) * kMinuteMs});
    return;
  }
  if (now <= last_update_) return;

  // The rates hold over [last_update_, now). Each step covers a part of one
  // second, or every whole second from t to the end of t's minute (or of
  // now's last whole second); an idle stretch is one step.
  const bool active = rate_up_ > 0.0 || rate_down_ > 0.0;
  const TimePoint last_second{((now.ms - 1) / kSecondMs) * kSecondMs};
  const TimePoint whole_end{(now.ms / kSecondMs) * kSecondMs};
  TimePoint t = last_update_;
  while (t < now) {
    const std::int64_t second_index = t.ms / kSecondMs;
    if (second_index != current_second_) {
      finalize_second();
      current_second_ = second_index;
    }
    const std::int64_t minute_index = t.ms / kMinuteMs;
    roll_to_minute(minute_index, TimePoint{minute_index * kMinuteMs});

    if (!active) {
      // Nothing accrues, and the empty minutes in between are never
      // emitted: go straight to the second holding now's last instant.
      t = t < last_second ? last_second : now;
      continue;
    }
    const TimePoint seg_end = std::min(TimePoint{(second_index + 1) * kSecondMs}, now);
    const TimePoint run_end = std::min(TimePoint{(minute_index + 1) * kMinuteMs}, whole_end);
    const std::int64_t seconds =
        t.ms % kSecondMs == 0 && run_end > t ? (run_end - t).ms / kSecondMs : 1;
    const double dt = (seg_end - t).seconds();
    const double up_bytes = rate_up_ * dt / 8.0;
    const double down_bytes = rate_down_ * dt / 8.0;
    sec_bytes_up_ += up_bytes;
    sec_bytes_down_ += down_bytes;
    bucket_.bytes_up += Bytes{seconds * static_cast<std::int64_t>(up_bytes)};
    bucket_.bytes_down += Bytes{seconds * static_cast<std::int64_t>(down_bytes)};
    if (seconds > 1) {
      // A whole second starts from a 0.0 accumulator, so each of these
      // seconds samples exactly (up_bytes, down_bytes): finalize that
      // sample once and leave the last second open, as the per-second
      // walk would.
      finalize_second();
      sec_bytes_up_ = up_bytes;
      sec_bytes_down_ = down_bytes;
      current_second_ = second_index + seconds - 1;
    }
    t = seconds > 1 ? run_end : seg_end;
  }
  last_update_ = now;
}

void ThroughputMeter::add_rate(net::Direction dir, double bps, TimePoint now) {
  integrate(now);
  if (dir == net::Direction::kUpstream) {
    rate_up_ += bps;
  } else {
    rate_down_ += bps;
  }
}

void ThroughputMeter::remove_rate(net::Direction dir, double bps, TimePoint now) {
  integrate(now);
  if (dir == net::Direction::kUpstream) {
    rate_up_ = std::max(0.0, rate_up_ - bps);
  } else {
    rate_down_ = std::max(0.0, rate_down_ - bps);
  }
}

void ThroughputMeter::advance_to(TimePoint now) {
  integrate(now);
  if (rate_up_ <= 0.0 && rate_down_ <= 0.0) {
    finalize_second();
    flush_bucket();
  }
}

}  // namespace bismark::gateway
