#include "analysis/collection_artifacts.h"

#include <algorithm>
#include <map>

namespace bismark::analysis {

CollectionOutageReport DetectCollectionOutages(const collect::DataRepository& repo,
                                               const ArtifactOptions& options) {
  CollectionOutageReport report;

  // Per-home online sets and overall activity spans (first..last heartbeat:
  // the period the home can be expected to report at all).
  std::map<int, IntervalSet> online_by_home;
  std::map<int, Interval> span_by_home;
  repo.for_each_row<collect::HeartbeatRun>([&](const collect::HeartbeatRun& run) {
    online_by_home[run.home.value].add(run.start, run.end);
    auto [it, inserted] = span_by_home.try_emplace(run.home.value, Interval{run.start, run.end});
    if (!inserted) {
      it->second.start = std::min(it->second.start, run.start);
      it->second.end = std::max(it->second.end, run.end);
    }
  });
  report.reporting_homes = static_cast<int>(online_by_home.size());
  if (report.reporting_homes == 0) return report;

  const Interval window = repo.windows().heartbeats;
  // Scan the window; at each sample, count homes silent among those whose
  // activity span covers the sample. Consecutive saturated samples merge
  // into candidate outages.
  TimePoint gap_start{};
  bool in_gap = false;
  for (TimePoint t = window.start; t < window.end; t += options.resolution) {
    int expected = 0;
    int silent = 0;
    for (const auto& [home, span] : span_by_home) {
      if (!span.contains(t)) continue;
      ++expected;
      if (!online_by_home[home].contains(t)) ++silent;
    }
    const bool saturated =
        expected >= 3 &&
        static_cast<double>(silent) >= options.min_affected_fraction * expected;
    if (saturated && !in_gap) {
      gap_start = t;
      in_gap = true;
    } else if (!saturated && in_gap) {
      if (t - gap_start >= options.min_gap) report.outages.add(gap_start, t);
      in_gap = false;
    }
  }
  if (in_gap && window.end - gap_start >= options.min_gap) {
    report.outages.add(gap_start, window.end);
  }
  return report;
}

std::vector<HomeAvailability> AnalyzeAvailabilityCorrected(
    const collect::DataRepository& repo, const CollectionOutageReport& artifacts,
    const DowntimeOptions& options) {
  // Start from the raw analysis, then re-examine each home's gaps. Both
  // read the runs of one pass over the data set.
  const RunsByHome runs_by_home = HeartbeatRunsByHome(repo);
  std::vector<HomeAvailability> homes = AvailabilityFromRuns(repo, runs_by_home, options);
  const Interval window = repo.windows().heartbeats;

  for (auto& home : homes) {
    // Every analysed home has runs.
    const auto& runs = runs_by_home.at(home.home.value);
    const auto downtimes = ExtractDowntimes(runs, window, options.threshold);

    int kept = 0;
    std::vector<double> kept_durations;
    double credited_days = 0.0;
    for (const auto& d : downtimes) {
      // A gap is an artifact when the detected collection outages cover
      // (nearly) all of it.
      const Duration covered =
          artifacts.outages.covered_within(d.gap.start, d.gap.end);
      const double coverage =
          static_cast<double>(covered.ms) / static_cast<double>(d.gap.length().ms);
      if (coverage >= 0.9) {
        credited_days += d.gap.length().days();
      } else {
        ++kept;
        kept_durations.push_back(d.gap.length().seconds());
      }
    }
    home.downtimes = kept;
    home.durations_s = std::move(kept_durations);
    // Time the home was "silent" purely due to the collector is credited
    // back as online time.
    home.online_days += credited_days;
  }
  return homes;
}

}  // namespace bismark::analysis
