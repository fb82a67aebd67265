#include "core/intervals.h"

#include <algorithm>

namespace bismark {

void IntervalSet::add(Interval iv) {
  if (iv.empty()) return;
  // Find first interval whose end >= iv.start (merge candidates).
  auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), iv.start,
      [](const Interval& a, TimePoint t) { return a.end < t; });
  auto last = first;
  while (last != intervals_.end() && last->start <= iv.end) {
    iv.start = std::min(iv.start, last->start);
    iv.end = std::max(iv.end, last->end);
    ++last;
  }
  const auto pos = intervals_.erase(first, last);
  intervals_.insert(pos, iv);
}

bool IntervalSet::contains(TimePoint t) const { return containing(t) != nullptr; }

const Interval* IntervalSet::containing(TimePoint t) const {
  const auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), t,
      [](TimePoint v, const Interval& a) { return v < a.start; });
  if (it == intervals_.begin()) return nullptr;
  const Interval& candidate = *std::prev(it);
  return candidate.contains(t) ? &candidate : nullptr;
}

Duration IntervalSet::total() const {
  Duration d{0};
  for (const auto& iv : intervals_) d += iv.length();
  return d;
}

Duration IntervalSet::covered_within(TimePoint lo, TimePoint hi) const {
  Duration d{0};
  for (const auto& iv : intervals_) {
    const TimePoint s = std::max(iv.start, lo);
    const TimePoint e = std::min(iv.end, hi);
    if (e > s) d += e - s;
  }
  return d;
}

double IntervalSet::coverage_fraction(TimePoint lo, TimePoint hi) const {
  if (hi <= lo) return 0.0;
  return static_cast<double>(covered_within(lo, hi).ms) / static_cast<double>((hi - lo).ms);
}

IntervalSet IntervalSet::intersect(const IntervalSet& other) const {
  IntervalSet out;
  auto a = intervals_.begin();
  auto b = other.intervals_.begin();
  while (a != intervals_.end() && b != other.intervals_.end()) {
    const TimePoint s = std::max(a->start, b->start);
    const TimePoint e = std::min(a->end, b->end);
    if (e > s) out.add(Interval{s, e});
    if (a->end < b->end) {
      ++a;
    } else {
      ++b;
    }
  }
  return out;
}

IntervalSet IntervalSet::clipped(TimePoint lo, TimePoint hi) const {
  IntervalSet out;
  for (const auto& iv : intervals_) {
    const TimePoint s = std::max(iv.start, lo);
    const TimePoint e = std::min(iv.end, hi);
    if (e > s) out.add(Interval{s, e});
  }
  return out;
}

}  // namespace bismark
