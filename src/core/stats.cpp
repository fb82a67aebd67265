#include "core/stats.h"

#include <algorithm>
#include <array>
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
    n_ += run.size();
    const bool compress_due = (since_compress_ += run.size()) >= period;
    if (run.size() == 1 || tuples_.empty() || holds_nan_ ||
        std::any_of(run.begin(), run.end(), [](double v) { return std::isnan(v); })) {
      for (const double v : run) insert(v);
      if (compress_due) compress();
    } else {
      insert_run(run, compress_due);
    }
    if (compress_due) since_compress_ = 0;
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

/// compress()'s fold rule over a stream of tuples, written at `out`: each
/// tuple but the first and the last folds into its successor (its g is
/// carried over) when g + next.g + next.delta < cap. `out` may trail the
/// tuples fed in, so compress() folds the list in place. A cap of 0 folds
/// nothing.
struct QuantileSketch::Fold {
  Tuple* out;
  std::uint64_t cap;
  Tuple pending;  // fed, but not yet known to be kept
  std::uint64_t limit{0};  // cap once the first tuple, which never folds, is out

  void operator()(Tuple next) {
    if (pending.g + next.g + next.delta < limit) {
      next.g += pending.g;
    } else {
      *out++ = pending;
      limit = cap;
    }
    pending = next;
  }
  /// Write the last tuple; returns the end of the kept tuples.
  Tuple* finish() {
    *out++ = pending;
    return out;
  }
};

namespace {

/// Whether the counting sort takes x: a whole number in [0, 256), +0.0
/// included. -0.0 is not, since its count would come back as +0.0.
bool Countable(double x) {
  return x >= 0.0 && x < 256.0 &&
         std::bit_cast<std::uint64_t>(static_cast<double>(static_cast<unsigned>(x))) ==
             std::bit_cast<std::uint64_t>(x);
}

}  // namespace

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
// list whose successor past the end is front. Compressing the merged list
// reads each tuple once, in order, so it runs in the same pass.
void QuantileSketch::insert_run(std::span<const double> run, bool compress_due) {
  // Reused by every run on this thread. It holds nothing between add()
  // calls, so a sketch may be fed from any thread.
  struct Scratch {
    std::vector<Tuple> low;     // values <= front.v, list order reversed
    std::vector<double> high;   // values > front.v, then sorted
    std::vector<Tuple> merged;  // the next tuple list
    std::array<std::uint32_t, 256> counts{};
  };
  thread_local Scratch scratch;
  auto& [low, high, merged, counts] = scratch;

  const Tuple front = tuples_.front();
  low.clear();
  high.clear();
  bool countable = true;
  for (const double x : run) {
    if (x > front.v) {
      high.push_back(x);
      countable = countable && Countable(x);
      continue;
    }
    // In `low`, x goes after every entry with v >= x: later arrivals go
    // first in list order, and a new minimum, the common case, is a
    // push_back.
    const auto at = std::partition_point(low.begin(), low.end(),
                                         [x](const Tuple& t) { return !(t.v < x); });
    std::uint64_t delta = 0;  // x is the new minimum
    if (at != low.end()) {
      const Tuple& succ = at == low.begin() ? front : at[-1];
      delta = succ.g + succ.delta - 1;
    }
    low.insert(at, {x, 1, delta});
  }

  // Small whole numbers, such as the WiFi scan columns, sort by counting.
  if (countable) {
    for (const double x : high) ++counts[static_cast<unsigned>(x)];
    auto out = high.begin();
    for (unsigned k = 0; out != high.end(); ++k) {
      out = std::fill_n(out, counts[k], static_cast<double>(k));
      counts[k] = 0;
    }
  } else {
    std::sort(high.begin(), high.end());
    // -0.0 and +0.0 compare equal, so the sort leaves them in any order;
    // insert() puts the latest first. Every zero in the run is above
    // front.v once one is.
    const auto zeros = std::equal_range(high.begin(), high.end(), 0.0);
    auto out = zeros.first;
    for (auto x = run.rbegin(); out != zeros.second; ++x) {
      if (*x == 0.0) *out++ = *x;
    }
  }

  // Merge front to back: the low values, then each new value before the
  // first old tuple at or above it, taking that tuple's delta. The buffer
  // grows to fit exactly, not geometrically: it becomes the sketch's list,
  // and analyze holds every per-stripe sketch until the fold.
  merged.reserve(tuples_.size() + run.size());
  merged.resize(tuples_.size() + run.size());
  auto old = tuples_.cbegin();
  // The list starts with the lowest low value, or else with front.
  Fold keep{merged.data(), compress_due ? compress_cap() : 0, low.empty() ? *old++ : low.back()};
  if (!low.empty()) low.pop_back();
  for (auto t = low.rbegin(); t != low.rend(); ++t) keep(*t);
  auto h = high.cbegin();
  for (; old != tuples_.cend(); ++old) {
    const std::uint64_t inherited = old->g + old->delta - 1;
    for (; h != high.cend() && !(old->v < *h); ++h) keep({*h, 1, inherited});
    keep(*old);
  }
  for (; h != high.cend(); ++h) keep({*h, 1, 0});
  merged.resize(static_cast<std::size_t>(keep.finish() - merged.data()));
  // The thread keeps the old list's buffer for its next run.
  tuples_.swap(merged);
}

void QuantileSketch::compress() {
  if (tuples_.empty()) return;
  Fold keep{tuples_.data(), compress_cap(), tuples_.front()};
  for (std::size_t i = 1; i < tuples_.size(); ++i) keep(tuples_[i]);
  tuples_.resize(static_cast<std::size_t>(keep.finish() - tuples_.data()));
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
