// Deterministic metrics for the measurement pipeline.
//
// The registry mirrors the sharded runner's own determinism contract: each
// shard of homes writes into its own MetricsShard, owned by exactly one
// worker at a time, so the hot path is a plain integer increment — no
// locks, no atomics, no contention. After the parallel phase the shards
// merge in shard-index order into a MetricsSnapshot whose entries sort by
// canonical metric name. Counters and histogram bins are integers (sums
// are order-independent), gauges merge by max, and histogram `sum` fields
// accumulate in the fixed shard order — so the rendered snapshot is
// byte-identical at any --workers count, the same guarantee the CSV
// exports already carry.
//
// Compile-out: building with -DBISMARK_OBS=OFF sets BISMARK_OBS_ENABLED=0,
// which removes every hot-path instrumentation site (the uploader's
// per-flush spool-occupancy and per-retry backoff histograms) at
// preprocessing time. The registry types themselves stay available, so the
// coarse once-per-home accounting that feeds home::UploadStats works in
// both builds.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#ifndef BISMARK_OBS_ENABLED
#define BISMARK_OBS_ENABLED 1
#endif

namespace bismark::obs {

/// Uniform-width bucket layout over [lo, hi); values below lo clamp into
/// the first bucket, values >= hi land in the overflow (+Inf) bucket.
struct HistoSpec {
  double lo{0.0};
  double hi{1.0};
  std::size_t buckets{10};

  [[nodiscard]] bool operator==(const HistoSpec&) const = default;
};

namespace detail {
struct CounterCell {
  std::string name;
  std::uint64_t value{0};
};
struct GaugeCell {
  std::string name;
  double value{0.0};
  bool set{false};
};
struct HistoCell {
  std::string name;
  HistoSpec spec;
  std::vector<std::uint64_t> bins;  // spec.buckets + 1 (last = overflow)
  std::uint64_t count{0};
  double sum{0.0};

  void observe(double x);
};
}  // namespace detail

/// Monotonic counter handle. Copyable, trivially cheap; incrementing a
/// default-constructed handle is a no-op (lets call sites skip null checks).
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) {
    if (cell_ != nullptr) cell_->value += n;
  }
  [[nodiscard]] std::uint64_t value() const { return cell_ != nullptr ? cell_->value : 0; }

 private:
  friend class MetricsShard;
  explicit Counter(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_{nullptr};
};

/// High-water-mark gauge: observe() keeps the maximum, and shards merge by
/// max — the only gauge semantic that is independent of shard interleaving.
class Gauge {
 public:
  Gauge() = default;
  void observe(double v) {
    if (cell_ == nullptr) return;
    if (!cell_->set || v > cell_->value) cell_->value = v;
    cell_->set = true;
  }
  [[nodiscard]] double value() const { return cell_ != nullptr ? cell_->value : 0.0; }

 private:
  friend class MetricsShard;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_{nullptr};
};

/// Fixed-bucket histogram handle.
class Histo {
 public:
  Histo() = default;
  void observe(double x) {
    if (cell_ != nullptr) cell_->observe(x);
  }
  [[nodiscard]] std::uint64_t count() const { return cell_ != nullptr ? cell_->count : 0; }

 private:
  friend class MetricsShard;
  explicit Histo(detail::HistoCell* cell) : cell_(cell) {}
  detail::HistoCell* cell_{nullptr};
};

/// One shard's metric store. Find-or-create is the cold path (a map
/// lookup); returned handles point at stable cells (deque storage), so the
/// hot path never touches the index again. Not thread-safe by design: a
/// shard belongs to one worker at a time, exactly like an IngestBatch.
class MetricsShard {
 public:
  MetricsShard() = default;
  MetricsShard(MetricsShard&&) = default;
  MetricsShard& operator=(MetricsShard&&) = default;

  /// Metric names may carry Prometheus-style labels inline, e.g.
  /// `bismark_spool_dropped_total{kind="wifi_scan"}`; the exporter splits
  /// the base name off at '{' for TYPE lines.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  /// The spec must agree across shards for the same name (checked at merge).
  Histo histogram(std::string_view name, HistoSpec spec);

  [[nodiscard]] const std::deque<detail::CounterCell>& counters() const { return counters_; }
  [[nodiscard]] const std::deque<detail::GaugeCell>& gauges() const { return gauges_; }
  [[nodiscard]] const std::deque<detail::HistoCell>& histograms() const { return histos_; }

 private:
  std::deque<detail::CounterCell> counters_;
  std::deque<detail::GaugeCell> gauges_;
  std::deque<detail::HistoCell> histos_;
  std::map<std::string, detail::CounterCell*, std::less<>> counter_index_;
  std::map<std::string, detail::GaugeCell*, std::less<>> gauge_index_;
  std::map<std::string, detail::HistoCell*, std::less<>> histo_index_;
};

/// Merged histogram data as exposed by a snapshot.
struct HistoData {
  HistoSpec spec;
  std::vector<std::uint64_t> bins;  // spec.buckets + 1 (last = overflow)
  std::uint64_t count{0};
  double sum{0.0};

  [[nodiscard]] double bin_upper(std::size_t i) const;  // +inf for overflow
};

/// The merged, canonically-ordered view of all shards. std::map keys give
/// the canonical name order; values are plain aggregates.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistoData> histograms;

  [[nodiscard]] std::uint64_t counter_or(std::string_view name,
                                         std::uint64_t fallback = 0) const;
  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Merge shards in index order (the caller's vector order — fixed by the
/// shard partition, never by the worker schedule). Histogram specs must
/// match per name; a mismatch keeps the first spec and drops the
/// conflicting shard's bins (and logs a warning) rather than corrupting
/// the layout.
[[nodiscard]] MetricsSnapshot MergeShards(std::span<const MetricsShard> shards);

/// Prometheus text exposition: `# TYPE` lines per base metric, histogram
/// rendered as cumulative `_bucket{le="..."}` series plus `_sum`/`_count`.
/// Deterministic formatting (fixed float rendering, canonical name order).
void WritePrometheus(const MetricsSnapshot& snapshot, std::ostream& out);

/// Fixed, locale-free rendering for metric values: integers exactly,
/// non-integers via "%.12g". Shared by the Prometheus and JSON exporters.
[[nodiscard]] std::string FormatMetricValue(double v);

}  // namespace bismark::obs
