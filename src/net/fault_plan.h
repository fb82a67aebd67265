// Fault injection for the gateway -> collector upload path.
//
// Section 3.3 concedes the study cannot tell a home outage from a failure
// "along the network path between the BISmark router and Georgia Tech".
// A FaultPlan makes that path a first-class, repeatable experiment: each
// upload attempt is subjected to scripted collector outage windows (the
// deployment's serial ground-truth pre-pass) plus stochastic request and
// ack loss drawn from a caller-supplied deterministic stream. Ack loss is
// the interesting failure: the collector committed the batch but the
// sender does not know, so an at-least-once retry produces a duplicate the
// ingest gate must absorb (collect/upload.h).
#pragma once

#include "core/intervals.h"
#include "core/rng.h"
#include "core/time.h"

namespace bismark::net {

/// What became of one upload attempt.
enum class DeliveryOutcome {
  kDelivered,     ///< request arrived and the ack made it back
  kLostRequest,   ///< lost on the way up; the collector never saw it
  kLostAck,       ///< collector committed the batch, ack lost on the way down
  kCollectorDown, ///< collector inside a scripted outage window
};

struct FaultConfig {
  /// Per-attempt probability the request is lost before the collector.
  double upload_loss_prob{0.0};
  /// Per-attempt probability the ack is lost after a successful commit.
  double ack_loss_prob{0.0};
};

/// Immutable, shareable description of the path's failure behaviour. The
/// plan holds no RNG of its own: callers pass their per-home stream, so the
/// outcome sequence is a pure function of (fault seed, home id) and never
/// of which worker thread performed the attempt.
class FaultPlan {
 public:
  /// Fault-free: every attempt delivers, the collector never goes down.
  FaultPlan() = default;

  FaultPlan(FaultConfig config, IntervalSet collector_down)
      : config_(config), collector_down_(std::move(collector_down)) {}

  [[nodiscard]] DeliveryOutcome attempt(TimePoint when, Rng& rng) const;

  [[nodiscard]] const IntervalSet& collector_down() const { return collector_down_; }
  [[nodiscard]] const FaultConfig& config() const { return config_; }

 private:
  FaultConfig config_{};
  IntervalSet collector_down_;
};

}  // namespace bismark::net
