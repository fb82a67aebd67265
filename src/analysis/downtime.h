// Availability analysis (Section 4).
//
// Everything here consumes the *measured* Heartbeats data set: downtime is
// a gap of >= 10 minutes in a home's heartbeat log, exactly the paper's
// definition, with no access to the simulator's ground truth.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "collect/repository.h"
#include "core/cdf.h"
#include "core/intervals.h"
#include "core/time.h"

namespace bismark::analysis {

/// One detected downtime event.
struct Downtime {
  collect::HomeId home;
  Interval gap;
};

/// Per-home availability statistics over the heartbeat window.
struct HomeAvailability {
  collect::HomeId home;
  std::string country_code;
  bool developed{true};
  int downtimes{0};
  double window_days{0.0};
  double online_days{0.0};           // heartbeat coverage
  std::vector<double> durations_s;   // one entry per downtime

  [[nodiscard]] double downtimes_per_day() const {
    return window_days > 0.0 ? downtimes / window_days : 0.0;
  }
  [[nodiscard]] double online_fraction() const {
    return window_days > 0.0 ? online_days / window_days : 0.0;
  }
};

struct DowntimeOptions {
  Duration threshold{Minutes(10)};
  /// Homes observed online for fewer days than this are excluded
  /// (Section 3.2.2: "routers that were on for at least 25 days").
  double min_online_days{25.0};
};

/// Extract downtime gaps from one home's (sorted-by-start) heartbeat runs.
[[nodiscard]] std::vector<Downtime> ExtractDowntimes(
    const std::vector<collect::HeartbeatRun>& runs, Interval window, Duration threshold);

/// Every home's heartbeat runs in canonical order, from one read of the
/// Heartbeats data set.
using RunsByHome = std::map<int, std::vector<collect::HeartbeatRun>>;
[[nodiscard]] RunsByHome HeartbeatRunsByHome(const collect::DataRepository& repo);

/// Per-home availability stats for all qualifying homes.
[[nodiscard]] std::vector<HomeAvailability> AnalyzeAvailability(
    const collect::DataRepository& repo, const DowntimeOptions& options = {});
/// The same from runs already grouped by HeartbeatRunsByHome.
[[nodiscard]] std::vector<HomeAvailability> AvailabilityFromRuns(
    const collect::DataRepository& repo, const RunsByHome& runs_by_home,
    const DowntimeOptions& options);

/// Fig. 3 / Fig. 4 presentation: a CDF per region.
struct RegionalCdfs {
  Cdf developed;
  Cdf developing;
};
[[nodiscard]] RegionalCdfs DowntimeFrequencyCdfs(const std::vector<HomeAvailability>& homes);
[[nodiscard]] RegionalCdfs DowntimeDurationCdfs(const std::vector<HomeAvailability>& homes);

/// Fig. 5: per-country scatter of median downtime count vs GDP.
struct CountryDowntimeRow {
  std::string country_code;
  bool developed{true};
  int homes{0};
  double gdp_ppp{0.0};
  double median_downtimes{0.0};
  double median_duration_s{0.0};
  double median_online_fraction{0.0};
};
[[nodiscard]] std::vector<CountryDowntimeRow> CountryDowntimeScatter(
    const std::vector<HomeAvailability>& homes,
    const std::vector<std::pair<std::string, double>>& gdp_by_country, int min_homes = 3);

/// §4.1 headline: median days between downtimes, per region.
struct RegionSummary {
  double median_days_between_downtimes_developed{0.0};
  double median_days_between_downtimes_developing{0.0};
  double median_duration_s_developed{0.0};
  double median_duration_s_developing{0.0};
};
[[nodiscard]] RegionSummary SummarizeRegions(const std::vector<HomeAvailability>& homes);

}  // namespace bismark::analysis
