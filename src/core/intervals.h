// Sets of disjoint time intervals.
//
// Availability timelines (router on-periods, Fig. 6), device presence
// schedules, and downtime detection (gaps between heartbeats, Section 4)
// all reduce to interval arithmetic over simulated time.
#pragma once

#include <vector>

#include "core/time.h"

namespace bismark {

/// A half-open interval [start, end).
struct Interval {
  TimePoint start;
  TimePoint end;

  [[nodiscard]] Duration length() const { return end - start; }
  [[nodiscard]] bool contains(TimePoint t) const { return t >= start && t < end; }
  [[nodiscard]] bool empty() const { return end <= start; }
};

/// An ordered set of disjoint half-open intervals. Adding an interval that
/// touches or overlaps existing ones merges them.
class IntervalSet {
 public:
  IntervalSet() = default;

  void add(Interval iv);
  void add(TimePoint start, TimePoint end) { add(Interval{start, end}); }

  [[nodiscard]] bool contains(TimePoint t) const;
  /// The interval covering `t`, if any.
  [[nodiscard]] const Interval* containing(TimePoint t) const;
  [[nodiscard]] const std::vector<Interval>& intervals() const { return intervals_; }
  [[nodiscard]] bool empty() const { return intervals_.empty(); }
  [[nodiscard]] std::size_t size() const { return intervals_.size(); }

  /// Total covered duration.
  [[nodiscard]] Duration total() const;
  /// Covered duration within [lo, hi).
  [[nodiscard]] Duration covered_within(TimePoint lo, TimePoint hi) const;
  /// Fraction of [lo, hi) covered, in [0, 1].
  [[nodiscard]] double coverage_fraction(TimePoint lo, TimePoint hi) const;

  /// Set intersection.
  [[nodiscard]] IntervalSet intersect(const IntervalSet& other) const;
  /// Clip to a window.
  [[nodiscard]] IntervalSet clipped(TimePoint lo, TimePoint hi) const;

 private:
  std::vector<Interval> intervals_;  // sorted, disjoint, non-touching
};

}  // namespace bismark
