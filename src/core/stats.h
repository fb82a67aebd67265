// Summary statistics used throughout the analysis layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace bismark {

/// Streaming mean / variance / min / max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  // population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
  double sum_{0.0};
};

/// Quantile of a sample by linear interpolation between order statistics
/// (the common "R-7" definition). q in [0, 1]. Copies and sorts.
[[nodiscard]] double Quantile(std::span<const double> values, double q);

/// Quantile of an already-sorted sample (no copy).
[[nodiscard]] double QuantileSorted(std::span<const double> sorted, double q);

[[nodiscard]] double Median(std::span<const double> values);
[[nodiscard]] double Mean(std::span<const double> values);
[[nodiscard]] double Sum(std::span<const double> values);

/// Pearson correlation coefficient; 0 if either side is constant.
[[nodiscard]] double Correlation(std::span<const double> x, std::span<const double> y);

/// Greenwald–Khanna streaming quantile sketch.
///
/// Holds O((1/eps) * log(eps * n)) tuples instead of the full sample and
/// answers any quantile query with rank error at most eps * n: the value
/// returned for quantile q is an element whose true rank r satisfies
/// |r - q * n| <= eps * n. This is what lets `analyze` compute the paper's
/// distribution figures from a fleet-scale record stream without the full
/// dataset resident (DESIGN §11).
class QuantileSketch {
 public:
  explicit QuantileSketch(double eps = 0.005);

  void add(double v) { add({&v, 1}); }
  /// Add values in order. The result is byte-identical to add(double) on
  /// each value in turn: values are taken in runs that end where that loop
  /// would compress, and each run joins the tuple list in one sorted merge
  /// (DESIGN §11). A run of one value, a run into an empty sketch, and
  /// every run that holds a NaN or follows one go in value by value.
  void add(std::span<const double> values);
  /// Fold another sketch in (per-shard sketches merged post-run). The
  /// merged sketch keeps the rank-error bound eps_a + eps_b, so merging
  /// same-eps sketches doubles the tolerance — budget eps accordingly.
  void merge(const QuantileSketch& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double eps() const { return eps_; }
  /// Tuples currently held (memory footprint; grows ~ (1/eps) log(eps n)).
  [[nodiscard]] std::size_t tuples() const { return tuples_.size(); }

  /// Value at quantile q in [0, 1], within eps * n rank error.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Little-endian bytes of the full sketch state ("GKS1": eps, count,
  /// compress cadence, tuples). Two sketches with equal bytes answer every
  /// query and absorb every later add or merge identically, so tests
  /// compare sketches by it. A comparison form, not a format: nothing
  /// reads it back.
  [[nodiscard]] std::string Serialize() const;

 private:
  /// One GK tuple: value v covers ranks [r_min, r_min + delta], where
  /// r_min is the sum of g over this and all preceding tuples.
  struct Tuple {
    double v;
    std::uint64_t g;
    std::uint64_t delta;
  };
  /// Insert one value where the first tuple with v' >= v is. n_ and the
  /// compress cadence are add()'s.
  void insert(double v);
  /// compress()'s fold rule over a stream of tuples (stats.cpp).
  struct Fold;
  /// Insert a run of non-NaN values into a non-empty, NaN-free tuple list
  /// in one sorted merge, with the same result as insert() on each value
  /// in turn, followed by compress() if `compress_due`, in the same pass.
  /// Its scratch is per thread, so it allocates only while that scratch
  /// grows.
  void insert_run(std::span<const double> run, bool compress_due);
  /// Fold each tuple but the first and the last into its successor while
  /// their g + g' + delta' stays below compress_cap(), in place.
  void compress();
  /// 2 eps n, the slack bound that compress() keeps each tuple under.
  [[nodiscard]] std::uint64_t compress_cap() const {
    return static_cast<std::uint64_t>(2.0 * eps_ * static_cast<double>(n_));
  }

  double eps_;
  std::size_t n_{0};
  std::size_t since_compress_{0};
  std::vector<Tuple> tuples_;  // sorted by v
  /// A NaN was inserted or merged in. It breaks the sorted order that
  /// insert_run relies on, so every later run is inserted value by value.
  bool holds_nan_{false};
};

}  // namespace bismark
