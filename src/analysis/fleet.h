// Streaming fleet analysis: the Figures 3-20 headline distributions,
// computed from one pass over each record stream with Greenwald-Khanna
// quantile sketches (core/stats.h) instead of resident row vectors.
//
// This is the analysis path that works at fleet scale: the repository may
// be spill-backed (collect/spill.h), in which case the rows stream out of
// the segment merge and nothing here ever holds a full data set. Per-home
// scalar accumulators are the only O(homes) state (a few dozen bytes per
// home); every distribution is an eps-bounded sketch.
//
// Each sketch group's row feeding is written once, as a feeder (fleet.cpp).
// A FleetSummarizer runs every feeder as a finish-pass consumer over its
// whole kind; the per-stripe SummarizeFleet runs the same feeders over one
// snapshot stripe at a time and folds the partials in stripe order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "collect/finish.h"
#include "collect/repository.h"
#include "core/stats.h"

namespace bismark::analysis {

/// Capacity distribution of one country's homes (the §4.2 regional
/// breakdown at fleet scale, where per-home medians no longer fit in RAM:
/// every ShaperProbe sample lands in its country's sketch instead).
struct CountryCapacity {
  /// Registered homes carrying this country code (roster count, present
  /// even when none of them ran a capacity probe).
  std::size_t homes{0};
  QuantileSketch down_mbps;
  QuantileSketch up_mbps;
};

/// Headline distributions of a deployment, each a streaming quantile
/// sketch (rank error <= eps, default 0.5 %).
struct FleetSummary {
  std::size_t homes{0};
  std::uint64_t rows{0};

  // --- Per-home samples (one value per contributing home) ---
  /// Fraction of the heartbeat window the home was reachable (Figs 3-4).
  QuantileSketch availability_fraction;
  /// Heartbeat-run boundaries per day, the downtime-rate proxy (Fig. 4).
  QuantileSketch downtimes_per_day;
  /// Distinct devices ever seen in the Devices window (Figs 7, 10).
  QuantileSketch unique_devices;

  // --- Per-row samples ---
  /// ShaperProbe capacity, one sample per probe (Figs 5, 11).
  QuantileSketch capacity_down_mbps;
  QuantileSketch capacity_up_mbps;
  /// Visible neighbour APs per WiFi scan (Fig. 9).
  QuantileSketch visible_aps;
  /// Associated clients per scan (Fig. 13's instantaneous view).
  QuantileSketch associated_clients;
  /// Downstream throughput per busy minute, Mbit/s (Figs 14-15).
  QuantileSketch throughput_down_mbps;
  /// Flow sizes, kilobytes (Figs 17-20's volume distributions).
  QuantileSketch flow_kbytes;

  /// Per-country capacity distributions, keyed by HomeInfo::country_code.
  std::map<std::string, CountryCapacity> capacity_by_country;
};

/// The fleet summary's accumulators as finish-pass consumers
/// (collect/finish.h): one sequential consumer per sketch, or per group of
/// sketches fed by the same rows, so every sketch sees the canonical row
/// order at any worker count. Construct before the pass runs; take() once
/// it has.
class FleetSummarizer {
 public:
  explicit FleetSummarizer(collect::FinishPass& pass);
  ~FleetSummarizer();
  FleetSummarizer(const FleetSummarizer&) = delete;  // the pass holds the state
  FleetSummarizer& operator=(const FleetSummarizer&) = delete;

  /// Fold the per-home accumulators into the summary and hand it over.
  [[nodiscard]] FleetSummary take();

 private:
  struct State;  // the roster and the accumulators the feeders fill
  std::unique_ptr<State> state_;
};

/// One streaming pass per data set over `repo` (resident, spilled or
/// column-backed): a finish pass with only the summary, run inline.
[[nodiscard]] FleetSummary SummarizeFleet(const collect::DataRepository& repo);

/// Parallel variant. On a column-backed repository (collect/
/// column_snapshot.h) every (kind, stripe) pair becomes one task on a
/// `workers`-thread pool that runs the kind's feeders over a RowReader of
/// that stripe, and the per-stripe partials are folded in stripe index
/// order — the stripe partition is a property of the snapshot, not of the
/// worker count, so the result is bit-identical for any `workers` (the CI
/// analyze diff gates on this). Falls back to the serial pass on in-RAM or
/// spill-backed repositories.
[[nodiscard]] FleetSummary SummarizeFleet(const collect::DataRepository& repo,
                                          std::size_t workers);

/// Render the summary as a fixed-width quantile table (p10/p50/p90/p99).
void WriteFleetSummary(const FleetSummary& summary, std::ostream& out);

/// The byte form of a summary: the scalar counts, every sketch's
/// QuantileSketch::Serialize bytes and the country table. Two summaries
/// with equal bytes print and fold identically, so tests compare summaries
/// by it. A comparison form, not a format: nothing stores or reads it back
/// (a resumed fleet run recomputes its summary in the finish pass).
[[nodiscard]] std::string SerializeFleetSummary(const FleetSummary& summary);

}  // namespace bismark::analysis
