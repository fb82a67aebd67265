#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bismark/meter.h"
#include "core/rng.h"

namespace bismark::gateway {
namespace {

const TimePoint t0 = MakeTime({2013, 4, 1});  // minute-aligned

class MeterTest : public ::testing::Test {
 protected:
  MeterTest()
      : meter_(collect::HomeId{1},
               [this](const collect::ThroughputMinute& m) { minutes_.push_back(m); }) {}
  ThroughputMeter meter_;
  std::vector<collect::ThroughputMinute> minutes_;
};

TEST_F(MeterTest, ConstantRateIntegratesBytes) {
  meter_.add_rate(net::Direction::kDownstream, 8e6, t0);  // 8 Mbps = 1 MB/s
  meter_.remove_rate(net::Direction::kDownstream, 8e6, t0 + Minutes(1));
  meter_.advance_to(t0 + Minutes(2));
  ASSERT_EQ(minutes_.size(), 1u);
  EXPECT_NEAR(minutes_[0].bytes_down.mb(), 60.0, 0.5);
  EXPECT_NEAR(minutes_[0].peak_down_bps, 8e6, 1e4);
  EXPECT_EQ(minutes_[0].minute_start, t0);
}

TEST_F(MeterTest, SilentMinutesNotEmitted) {
  meter_.add_rate(net::Direction::kUpstream, 1e6, t0);
  meter_.remove_rate(net::Direction::kUpstream, 1e6, t0 + Seconds(30));
  meter_.advance_to(t0 + Minutes(30));
  // Only the single active minute appears despite the long advance.
  ASSERT_EQ(minutes_.size(), 1u);
  EXPECT_GT(minutes_[0].bytes_up.count, 0);
}

TEST_F(MeterTest, PeakIsMaxPerSecondThroughputNotInstantaneousRate) {
  // A 100 ms burst at 80 Mbps moves 1 MB; smeared over its second that is
  // 8 Mbps — the paper's "maximum per-second throughput" (Section 6.2).
  meter_.add_rate(net::Direction::kDownstream, 80e6, t0);
  meter_.remove_rate(net::Direction::kDownstream, 80e6, t0 + Millis(100));
  meter_.advance_to(t0 + Minutes(1));
  ASSERT_EQ(minutes_.size(), 1u);
  EXPECT_NEAR(minutes_[0].peak_down_bps, 8e6, 1e5);
}

TEST_F(MeterTest, OverlappingRatesSum) {
  meter_.add_rate(net::Direction::kDownstream, 2e6, t0);
  meter_.add_rate(net::Direction::kDownstream, 3e6, t0 + Seconds(10));
  meter_.remove_rate(net::Direction::kDownstream, 2e6, t0 + Seconds(20));
  meter_.remove_rate(net::Direction::kDownstream, 3e6, t0 + Seconds(30));
  meter_.advance_to(t0 + Minutes(1));
  ASSERT_EQ(minutes_.size(), 1u);
  EXPECT_NEAR(minutes_[0].peak_down_bps, 5e6, 1e4);
  // 2 Mbps x 20 s + 3 Mbps x 20 s = 100 Mbit = 12.5 MB.
  EXPECT_NEAR(minutes_[0].bytes_down.mb(), 12.5, 0.2);
}

TEST_F(MeterTest, MinuteBoundariesSplitCorrectly) {
  meter_.add_rate(net::Direction::kUpstream, 8e6, t0 + Seconds(30));
  meter_.remove_rate(net::Direction::kUpstream, 8e6, t0 + Seconds(90));
  meter_.advance_to(t0 + Minutes(3));
  ASSERT_EQ(minutes_.size(), 2u);
  EXPECT_NEAR(minutes_[0].bytes_up.mb(), 30.0, 0.5);
  EXPECT_NEAR(minutes_[1].bytes_up.mb(), 30.0, 0.5);
  EXPECT_EQ(minutes_[1].minute_start, t0 + Minutes(1));
}

TEST_F(MeterTest, UpAndDownIndependent) {
  meter_.add_rate(net::Direction::kUpstream, 1e6, t0);
  meter_.add_rate(net::Direction::kDownstream, 4e6, t0);
  meter_.remove_rate(net::Direction::kUpstream, 1e6, t0 + Seconds(60));
  meter_.remove_rate(net::Direction::kDownstream, 4e6, t0 + Seconds(60));
  meter_.advance_to(t0 + Minutes(2));
  ASSERT_EQ(minutes_.size(), 1u);
  EXPECT_NEAR(minutes_[0].peak_up_bps, 1e6, 1e4);
  EXPECT_NEAR(minutes_[0].peak_down_bps, 4e6, 1e4);
  EXPECT_NEAR(minutes_[0].bytes_down.count / static_cast<double>(minutes_[0].bytes_up.count),
              4.0, 0.1);
}

TEST_F(MeterTest, RemoveBelowZeroClamps) {
  meter_.add_rate(net::Direction::kUpstream, 1e6, t0);
  meter_.remove_rate(net::Direction::kUpstream, 5e6, t0 + Seconds(1));
  EXPECT_DOUBLE_EQ(meter_.current_rate(net::Direction::kUpstream), 0.0);
}

TEST_F(MeterTest, LongIdleGapThenTraffic) {
  meter_.add_rate(net::Direction::kDownstream, 1e6, t0);
  meter_.remove_rate(net::Direction::kDownstream, 1e6, t0 + Seconds(10));
  // Two days later, more traffic.
  const TimePoint later = t0 + Days(2);
  meter_.add_rate(net::Direction::kDownstream, 1e6, later);
  meter_.remove_rate(net::Direction::kDownstream, 1e6, later + Seconds(10));
  meter_.advance_to(later + Minutes(1));
  ASSERT_EQ(minutes_.size(), 2u);
  EXPECT_EQ(minutes_[1].minute_start, later);
}

TEST_F(MeterTest, SubSecondBurstsAccumulateWithinSecond) {
  // Two 100 ms bursts inside the same second add into one per-second sample.
  meter_.add_rate(net::Direction::kDownstream, 40e6, t0);
  meter_.remove_rate(net::Direction::kDownstream, 40e6, t0 + Millis(100));
  meter_.add_rate(net::Direction::kDownstream, 40e6, t0 + Millis(500));
  meter_.remove_rate(net::Direction::kDownstream, 40e6, t0 + Millis(600));
  meter_.advance_to(t0 + Minutes(1));
  ASSERT_EQ(minutes_.size(), 1u);
  EXPECT_NEAR(minutes_[0].peak_down_bps, 8e6, 2e5);  // 2 x 0.5 MB in 1 s
}


TEST_F(MeterTest, PropertyRandomRateSequenceConservesBytes) {
  // Whatever the add/remove sequence, the bytes binned into minutes must
  // equal the integral of the instantaneous rate.
  Rng rng(99);
  TimePoint t = t0;
  double active = 0.0;
  double max_active = 0.0;
  double expected_bytes = 0.0;
  std::vector<double> live_rates;
  for (int i = 0; i < 400; ++i) {
    const double dt = rng.uniform(0.05, 30.0);
    expected_bytes += active * dt / 8.0;
    t += Seconds(dt);
    if (!live_rates.empty() && rng.bernoulli(0.45)) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live_rates.size()) - 1));
      meter_.remove_rate(net::Direction::kDownstream, live_rates[pick], t);
      active -= live_rates[pick];
      live_rates.erase(live_rates.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const double rate = rng.uniform(1e5, 2e7);
      meter_.add_rate(net::Direction::kDownstream, rate, t);
      active += rate;
      max_active = std::max(max_active, active);
      live_rates.push_back(rate);
    }
  }
  // Drain whatever is still active and flush.
  const double dt = 5.0;
  expected_bytes += active * dt / 8.0;
  t += Seconds(dt);
  for (double rate : live_rates) meter_.remove_rate(net::Direction::kDownstream, rate, t);
  meter_.advance_to(t + Minutes(2));

  double binned = 0.0;
  double max_peak = 0.0;
  for (const auto& m : minutes_) {
    binned += static_cast<double>(m.bytes_down.count);
    max_peak = std::max(max_peak, m.peak_down_bps);
  }
  EXPECT_NEAR(binned, expected_bytes, expected_bytes * 0.001 + minutes_.size());
  // Peaks never exceed the largest concurrent aggregate rate.
  EXPECT_LE(max_peak, max_active + 1.0);
}

// A meter that integrates every elapsed second one at a time: the reference
// that ThroughputMeter's whole-second steps must match bit for bit.
class PerSecondMeter {
 public:
  explicit PerSecondMeter(std::vector<collect::ThroughputMinute>* out) : out_(out) {}

  void add_rate(net::Direction dir, double bps, TimePoint now) {
    integrate(now);
    rate(dir) += bps;
  }
  void remove_rate(net::Direction dir, double bps, TimePoint now) {
    integrate(now);
    rate(dir) = std::max(0.0, rate(dir) - bps);
  }
  void advance_to(TimePoint now) {
    integrate(now);
    if (rate_up_ <= 0.0 && rate_down_ <= 0.0) {
      finalize_second();
      flush_bucket();
    }
  }

 private:
  static constexpr std::int64_t kMinuteMs = 60000;
  static constexpr std::int64_t kSecondMs = 1000;

  double& rate(net::Direction dir) {
    return dir == net::Direction::kUpstream ? rate_up_ : rate_down_;
  }

  void flush_bucket() {
    if (bucket_minute_ < 0) return;
    if (bucket_.bytes_up.count > 0 || bucket_.bytes_down.count > 0) out_->push_back(bucket_);
    bucket_ = collect::ThroughputMinute{};
    bucket_minute_ = -1;
  }

  void roll_to_minute(std::int64_t minute_index) {
    if (minute_index == bucket_minute_) return;
    flush_bucket();
    bucket_minute_ = minute_index;
    bucket_.home = collect::HomeId{1};
    bucket_.minute_start = TimePoint{minute_index * kMinuteMs};
  }

  void finalize_second() {
    if (sec_bytes_up_ > 0.0 || sec_bytes_down_ > 0.0) {
      bucket_.peak_up_bps = std::max(bucket_.peak_up_bps, sec_bytes_up_ * 8.0);
      bucket_.peak_down_bps = std::max(bucket_.peak_down_bps, sec_bytes_down_ * 8.0);
    }
    sec_bytes_up_ = 0.0;
    sec_bytes_down_ = 0.0;
  }

  void integrate(TimePoint now) {
    if (!started_) {
      started_ = true;
      last_update_ = now;
      current_second_ = now.ms / kSecondMs;
      roll_to_minute(now.ms / kMinuteMs);
      return;
    }
    if (now <= last_update_) return;
    TimePoint t = last_update_;
    while (t < now) {
      const std::int64_t second_index = t.ms / kSecondMs;
      if (second_index != current_second_) {
        finalize_second();
        current_second_ = second_index;
      }
      roll_to_minute(t.ms / kMinuteMs);
      const TimePoint seg_end = std::min(TimePoint{(second_index + 1) * kSecondMs}, now);
      const double dt = (seg_end - t).seconds();
      if (dt > 0.0 && (rate_up_ > 0.0 || rate_down_ > 0.0)) {
        const double up_bytes = rate_up_ * dt / 8.0;
        const double down_bytes = rate_down_ * dt / 8.0;
        sec_bytes_up_ += up_bytes;
        sec_bytes_down_ += down_bytes;
        bucket_.bytes_up += Bytes{static_cast<std::int64_t>(up_bytes)};
        bucket_.bytes_down += Bytes{static_cast<std::int64_t>(down_bytes)};
      }
      t = seg_end;
    }
    last_update_ = now;
  }

  std::vector<collect::ThroughputMinute>* out_;
  double rate_up_{0.0};
  double rate_down_{0.0};
  TimePoint last_update_{};
  bool started_{false};
  collect::ThroughputMinute bucket_{};
  std::int64_t bucket_minute_{-1};
  std::int64_t current_second_{-1};
  double sec_bytes_up_{0.0};
  double sec_bytes_down_{0.0};
};

TEST_F(MeterTest, WholeSecondStepsMatchPerSecondReference) {
  // Seeded add/remove/advance sequences: sub-second to half-day gaps,
  // instants on and off second and minute boundaries, rates from below
  // 1 bit/s to tens of Mbit/s. Every emitted minute must be identical,
  // doubles included.
  const auto dirs = {net::Direction::kUpstream, net::Direction::kDownstream};
  int leftovers = 0;
  int long_idle = 0;
  int long_flows = 0;
  int on_second = 0;
  int on_minute = 0;
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    std::vector<collect::ThroughputMinute> got;
    std::vector<collect::ThroughputMinute> want;
    ThroughputMeter meter(collect::HomeId{1},
                          [&got](const collect::ThroughputMinute& m) { got.push_back(m); });
    PerSecondMeter reference(&want);
    Rng rng(seed);
    std::vector<std::pair<net::Direction, double>> live;
    TimePoint t = t0 + Millis(rng.uniform_int(0, 59999));
    for (int op = 0; op < 400; ++op) {
      const double gap = rng.uniform();
      const std::int64_t gap_ms = gap < 0.4   ? rng.uniform_int(1, 999)
                                  : gap < 0.7 ? rng.uniform_int(1000, 30000)
                                  : gap < 0.9 ? rng.uniform_int(60000, 1200000)
                                              : rng.uniform_int(3600000, 43200000);
      if (gap_ms >= 3600000 && rng.bernoulli(0.7)) {
        // Most long gaps are idle: every flow ends first, in one instant.
        for (const auto& [dir, bps] : live) {
          meter.remove_rate(dir, bps, t);
          reference.remove_rate(dir, bps, t);
        }
        live.clear();
      }
      const bool active = meter.current_rate(net::Direction::kUpstream) > 0.0 ||
                          meter.current_rate(net::Direction::kDownstream) > 0.0;
      if (gap_ms >= 3600000 && !active) ++long_idle;
      if (gap_ms >= 120000 && active) ++long_flows;
      t += Millis(gap_ms);
      const double snap = rng.uniform();
      if (snap < 0.2) {
        t = TimePoint{(t.ms / 1000 + 1) * 1000};
      } else if (snap < 0.3) {
        t = TimePoint{(t.ms / 60000 + 1) * 60000};
      }
      if (t.ms % 1000 == 0) ++on_second;
      if (t.ms % 60000 == 0) ++on_minute;

      const double what = rng.uniform();
      if (what < 0.1) {
        meter.advance_to(t);
        reference.advance_to(t);
      } else if (!live.empty() && what < 0.6) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        meter.remove_rate(live[pick].first, live[pick].second, t);
        reference.remove_rate(live[pick].first, live[pick].second, t);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        const auto dir =
            rng.bernoulli(0.5) ? net::Direction::kUpstream : net::Direction::kDownstream;
        const double kind = rng.uniform();
        const double bps = kind < 0.6    ? rng.uniform(1e5, 3e7)
                           : kind < 0.85 ? rng.uniform(1.0, 5000.0)
                                         : rng.uniform(0.01, 0.99);
        meter.add_rate(dir, bps, t);
        reference.add_rate(dir, bps, t);
        live.emplace_back(dir, bps);
      }
      for (const auto dir : dirs) {
        const bool none_live = std::none_of(live.begin(), live.end(),
                                            [dir](const auto& r) { return r.first == dir; });
        const double left = meter.current_rate(dir);
        if (none_live && left > 0.0 && left < 1.0) ++leftovers;
      }
    }
    t += Millis(1500);
    for (const auto& [dir, bps] : live) {
      meter.remove_rate(dir, bps, t);
      reference.remove_rate(dir, bps, t);
    }
    meter.advance_to(t + Minutes(3));
    reference.advance_to(t + Minutes(3));

    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " minute " << i);
      EXPECT_EQ(got[i].home, want[i].home);
      EXPECT_EQ(got[i].minute_start, want[i].minute_start);
      EXPECT_EQ(got[i].bytes_up, want[i].bytes_up);
      EXPECT_EQ(got[i].bytes_down, want[i].bytes_down);
      EXPECT_EQ(got[i].peak_up_bps, want[i].peak_up_bps);
      EXPECT_EQ(got[i].peak_down_bps, want[i].peak_down_bps);
    }
    compared += got.size();
  }
  // The sequences reach every case the whole-second steps special-case.
  EXPECT_GT(compared, 20000u);
  EXPECT_GT(leftovers, 100);
  EXPECT_GT(long_idle, 30);
  EXPECT_GT(long_flows, 300);
  EXPECT_GT(on_second, 500);
  EXPECT_GT(on_minute, 200);
}

}  // namespace
}  // namespace bismark::gateway
