// Collection-infrastructure artifacts (Section 3.3).
//
// "Various outages and failures — both of the routers themselves and of
// the collection infrastructure — introduced interruptions in our
// collection", and "a loss of heartbeats might simply result from problems
// along the network path between the BISmark router and Georgia Tech."
// A *server-side* outage looks like downtime in every home at once; a real
// home outage is local. This module detects simultaneous heartbeat gaps
// across the deployment and lets the availability analysis discount them —
// turning the paper's acknowledged limitation into a measurable, and
// correctable, quantity.
#pragma once

#include <vector>

#include "analysis/downtime.h"
#include "collect/repository.h"
#include "core/intervals.h"

namespace bismark::analysis {

struct ArtifactOptions {
  /// Minimum simultaneous-gap length to consider (matches the downtime
  /// threshold by default).
  Duration min_gap{Minutes(10)};
  /// A moment counts as a collection outage when at least this fraction of
  /// the homes that were reporting *around* it are silent — far more homes
  /// than any plausible set of independent failures.
  double min_affected_fraction{0.6};
  /// Sampling granularity for the overlap scan.
  Duration resolution{Minutes(5)};
};

/// Detected intervals where the collection infrastructure (not the homes)
/// was down.
struct CollectionOutageReport {
  IntervalSet outages;
  /// Homes that were reporting at some point in the study (the denominator).
  int reporting_homes{0};
};

/// Scan the heartbeat data set for deployment-wide simultaneous gaps.
[[nodiscard]] CollectionOutageReport DetectCollectionOutages(
    const collect::DataRepository& repo, const ArtifactOptions& options = {});

/// Availability analysis with collection outages discounted: gaps entirely
/// explained by a detected collection outage are not counted as home
/// downtime, and homes are not charged offline time for them.
[[nodiscard]] std::vector<HomeAvailability> AnalyzeAvailabilityCorrected(
    const collect::DataRepository& repo, const CollectionOutageReport& artifacts,
    const DowntimeOptions& options = {});

}  // namespace bismark::analysis
