#include "core/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>

#include "core/little_endian.h"

namespace bismark {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_ + other.n_);
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) * static_cast<double>(other.n_) / n;
  mean_ = (mean_ * static_cast<double>(n_) + other.mean_ * static_cast<double>(other.n_)) / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  n_ += other.n_;
}

double RunningStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double QuantileSorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  q = std::clamp(q, 0.0, 1.0);
  const double h = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Quantile(std::span<const double> values, double q) {
  std::vector<double> copy(values.begin(), values.end());
  std::sort(copy.begin(), copy.end());
  return QuantileSorted(copy, q);
}

double Median(std::span<const double> values) { return Quantile(values, 0.5); }

double Mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double Sum(std::span<const double> values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

double Correlation(std::span<const double> x, std::span<const double> y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  const double mx = Mean(x.subspan(0, n));
  const double my = Mean(y.subspan(0, n));
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

QuantileSketch::QuantileSketch(double eps) : eps_(std::clamp(eps, 1e-6, 0.5)) {}

void QuantileSketch::add(std::span<const double> values) {
  // Amortize compression: every 1/(2 eps) inserts keeps the invariant
  // g + delta <= 2 eps n while touching the array O(1) amortized.
  const auto period = static_cast<std::size_t>(1.0 / (2.0 * eps_));
  while (!values.empty()) {
    // A run ends where one-at-a-time adds would compress. After a merge
    // raised eps, since_compress_ can already be past the period.
    const std::size_t room = since_compress_ < period ? period - since_compress_ : 1;
    const std::span<const double> run = values.first(std::min(values.size(), room));
    values = values.subspan(run.size());
    if (run.size() == 1 || tuples_.empty() || holds_nan_ ||
        std::any_of(run.begin(), run.end(), [](double v) { return std::isnan(v); })) {
      for (const double v : run) insert(v);
    } else {
      insert_run(run);
    }
    n_ += run.size();
    if ((since_compress_ += run.size()) >= period) {
      compress();
      since_compress_ = 0;
    }
  }
}

void QuantileSketch::insert(double v) {
  // Find insertion point: first tuple with value >= v.
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), v,
                             [](const Tuple& t, double x) { return t.v < x; });
  Tuple fresh{v, 1, 0};
  if (it != tuples_.begin() && it != tuples_.end()) {
    // Interior insert: the successor may carry mass folded up from values
    // below v, so the new tuple inherits that rank uncertainty. Extremes
    // (new min/max) are exact, which keeps min()/max() precise.
    fresh.delta = it->g + it->delta - 1;
  }
  tuples_.insert(it, fresh);
  holds_nan_ = holds_nan_ || std::isnan(v);
}

// Why one merge equals insert() value by value, with `front` the first
// tuple before the run. A value x > front.v never lands first, so its
// delta is that of the first tuple with v >= x, or 0 when it lands last.
// If that tuple is new it has g = 1 and inherited its own delta the same
// way, so the delta is always the one of the first *pre-run* tuple with
// v >= x, in any arrival order. Those values are therefore sorted and
// merged with the old list in one pass, new before old on equal v and the
// latest first among equal new values (which only shows when -0.0 and
// +0.0 mix). Values x <= front.v all land before front and their deltas
// depend on arrival order, so they are inserted one by one into a short
// list whose successor past the end is front.
void QuantileSketch::insert_run(std::span<const double> run) {
  const Tuple front = tuples_.front();
  // The values <= front.v in list order reversed, so a new minimum, the
  // common case, is a push_back.
  std::vector<Tuple> low;
  // The values > front.v; delta holds the arrival index until the merge.
  std::vector<Tuple> high;
  high.reserve(run.size());
  for (std::size_t i = 0; i < run.size(); ++i) {
    const double x = run[i];
    if (x > front.v) {
      high.push_back({x, 1, i});
      continue;
    }
    // In `low`, x goes after every entry with v >= x: later arrivals go
    // first in list order.
    const auto at = std::partition_point(low.begin(), low.end(),
                                         [x](const Tuple& t) { return !(t.v < x); });
    std::uint64_t delta = 0;  // x is the new minimum
    if (at != low.end()) {
      const Tuple& succ = at == low.begin() ? front : at[-1];
      delta = succ.g + succ.delta - 1;
    }
    low.insert(at, {x, 1, delta});
  }
  std::sort(high.begin(), high.end(), [](const Tuple& a, const Tuple& b) {
    return a.v < b.v || (a.v == b.v && a.delta > b.delta);
  });

  // Merge from the back in place; the low values then take the front.
  const auto old_size = static_cast<std::ptrdiff_t>(tuples_.size());
  tuples_.resize(tuples_.size() + low.size() + high.size());
  auto old_end = tuples_.begin() + old_size;
  auto out = tuples_.end();
  std::uint64_t inherited = 0;  // delta of the pre-run tuple after `out`
  for (auto h = high.rbegin(); h != high.rend(); ++h) {
    // Stops at front at the latest, since h->v > front.v.
    while (!(old_end[-1].v < h->v)) {
      --old_end;
      inherited = old_end->g + old_end->delta - 1;
      *--out = *old_end;
    }
    *--out = Tuple{h->v, 1, inherited};
  }
  if (!low.empty()) {
    std::move_backward(tuples_.begin(), old_end, out);
    std::copy(low.rbegin(), low.rend(), tuples_.begin());
  }
}

void QuantileSketch::compress() {
  if (tuples_.size() < 3) return;
  const auto cap = static_cast<std::uint64_t>(2.0 * eps_ * static_cast<double>(n_));
  // Fold each tuple into its successor when the combined slack fits; the
  // first and last tuples are kept so min/max stay exact.
  std::vector<Tuple> out;
  out.reserve(tuples_.size());
  std::uint64_t carry = 0;
  out.push_back(tuples_.front());
  for (std::size_t i = 1; i < tuples_.size(); ++i) {
    Tuple t = tuples_[i];
    t.g += carry;
    carry = 0;
    const bool last = (i + 1 == tuples_.size());
    if (!last && t.g + tuples_[i + 1].g + tuples_[i + 1].delta < cap) {
      carry = t.g;  // fold this tuple into its successor
    } else {
      out.push_back(t);
    }
  }
  tuples_ = std::move(out);
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  // Standard GK merge: interleave the tuple lists by value; each side's
  // rank uncertainty adds, so the result honours eps_a + eps_b.
  std::vector<Tuple> merged;
  merged.reserve(tuples_.size() + other.tuples_.size());
  std::merge(tuples_.begin(), tuples_.end(), other.tuples_.begin(), other.tuples_.end(),
             std::back_inserter(merged),
             [](const Tuple& a, const Tuple& b) { return a.v < b.v; });
  tuples_ = std::move(merged);
  n_ += other.n_;
  holds_nan_ = holds_nan_ || other.holds_nan_;
  eps_ = std::min(eps_ + other.eps_, 0.5);
  compress();
}

double QuantileSketch::quantile(double q) const {
  if (tuples_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q == 0.0) return tuples_.front().v;  // extremes are kept exact
  if (q == 1.0) return tuples_.back().v;
  // Canonical GK query: target 1-based rank r; return the value of the last
  // tuple whose maximum possible rank still fits under r + eps*n. Together
  // with the g + delta <= 2*eps*n invariant this bounds rank error by eps*n.
  const double target = 1.0 + q * static_cast<double>(n_ - 1);
  const double limit = target + eps_ * static_cast<double>(n_);
  std::uint64_t r_min = tuples_.front().g;
  for (std::size_t i = 1; i < tuples_.size(); ++i) {
    if (static_cast<double>(r_min + tuples_[i].g + tuples_[i].delta) > limit) {
      return tuples_[i - 1].v;
    }
    r_min += tuples_[i].g;
  }
  return tuples_.back().v;
}

// The GKS1 blob: "GKS1" | f64 eps | u64 n | u64 since_compress | u64 tuple
// count | per tuple f64 v, u64 g, u64 delta — all little-endian.
constexpr char kSketchMagic[4] = {'G', 'K', 'S', '1'};
constexpr std::size_t kSketchHeaderBytes = 36;
constexpr std::size_t kSketchTupleBytes = 24;

std::string QuantileSketch::Serialize() const {
  std::string out(kSketchMagic, sizeof(kSketchMagic));
  out.reserve(kSketchHeaderBytes + kSketchTupleBytes * tuples_.size());
  core::StoreLe<8>(out, std::bit_cast<std::uint64_t>(eps_));
  core::StoreLe<8>(out, n_);
  core::StoreLe<8>(out, since_compress_);
  core::StoreLe<8>(out, tuples_.size());
  for (const Tuple& t : tuples_) {
    core::StoreLe<8>(out, std::bit_cast<std::uint64_t>(t.v));
    core::StoreLe<8>(out, t.g);
    core::StoreLe<8>(out, t.delta);
  }
  return out;
}

double QuantileSketch::min() const { return tuples_.empty() ? 0.0 : tuples_.front().v; }

double QuantileSketch::max() const { return tuples_.empty() ? 0.0 : tuples_.back().v; }

}  // namespace bismark
