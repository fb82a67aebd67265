#include "analysis/downtime.h"

#include <algorithm>
#include <map>

#include "core/stats.h"

namespace bismark::analysis {

std::vector<Downtime> ExtractDowntimes(const std::vector<collect::HeartbeatRun>& runs,
                                       Interval window, Duration threshold) {
  std::vector<Downtime> out;
  if (runs.empty()) return out;

  std::vector<collect::HeartbeatRun> sorted = runs;
  std::sort(sorted.begin(), sorted.end(),
            [](const collect::HeartbeatRun& a, const collect::HeartbeatRun& b) {
              return a.start < b.start;
            });

  // Internal gaps between consecutive runs. Leading/trailing window edges
  // are not counted — the paper cannot distinguish "not yet deployed"
  // from "down" either.
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    const TimePoint gap_start = sorted[i - 1].end;
    const TimePoint gap_end = sorted[i].start;
    if (gap_end <= gap_start) continue;
    if (gap_end - gap_start >= threshold && gap_start >= window.start &&
        gap_end <= window.end) {
      out.push_back(Downtime{sorted[i].home, Interval{gap_start, gap_end}});
    }
  }
  return out;
}

RunsByHome HeartbeatRunsByHome(const collect::DataRepository& repo) {
  RunsByHome runs_by_home;
  repo.for_each_row<collect::HeartbeatRun>([&](const collect::HeartbeatRun& run) {
    runs_by_home[run.home.value].push_back(run);
  });
  return runs_by_home;
}

std::vector<HomeAvailability> AnalyzeAvailability(const collect::DataRepository& repo,
                                                  const DowntimeOptions& options) {
  return AvailabilityFromRuns(repo, HeartbeatRunsByHome(repo), options);
}

std::vector<HomeAvailability> AvailabilityFromRuns(const collect::DataRepository& repo,
                                                   const RunsByHome& runs_by_home,
                                                   const DowntimeOptions& options) {
  const Interval window = repo.windows().heartbeats;
  std::vector<HomeAvailability> out;
  for (const auto& info : repo.homes()) {
    const auto it = runs_by_home.find(info.id.value);
    if (it == runs_by_home.end()) continue;

    HomeAvailability stats;
    stats.home = info.id;
    stats.country_code = info.country_code;
    stats.developed = info.developed;
    stats.window_days = (window.end - window.start).days();

    Duration online{0};
    for (const auto& run : it->second) online += run.end - run.start;
    stats.online_days = online.days();
    if (stats.online_days < options.min_online_days) continue;

    const auto downtimes = ExtractDowntimes(it->second, window, options.threshold);
    stats.downtimes = static_cast<int>(downtimes.size());
    stats.durations_s.reserve(downtimes.size());
    for (const auto& d : downtimes) stats.durations_s.push_back(d.gap.length().seconds());
    out.push_back(std::move(stats));
  }
  return out;
}

RegionalCdfs DowntimeFrequencyCdfs(const std::vector<HomeAvailability>& homes) {
  RegionalCdfs cdfs;
  for (const auto& h : homes) {
    (h.developed ? cdfs.developed : cdfs.developing).add(h.downtimes_per_day());
  }
  return cdfs;
}

RegionalCdfs DowntimeDurationCdfs(const std::vector<HomeAvailability>& homes) {
  RegionalCdfs cdfs;
  for (const auto& h : homes) {
    for (double d : h.durations_s) {
      (h.developed ? cdfs.developed : cdfs.developing).add(d);
    }
  }
  return cdfs;
}

std::vector<CountryDowntimeRow> CountryDowntimeScatter(
    const std::vector<HomeAvailability>& homes,
    const std::vector<std::pair<std::string, double>>& gdp_by_country, int min_homes) {
  std::map<std::string, std::vector<const HomeAvailability*>> by_country;
  for (const auto& h : homes) by_country[h.country_code].push_back(&h);

  std::vector<CountryDowntimeRow> rows;
  for (const auto& [code, list] : by_country) {
    if (static_cast<int>(list.size()) < min_homes) continue;
    CountryDowntimeRow row;
    row.country_code = code;
    row.developed = list.front()->developed;
    row.homes = static_cast<int>(list.size());
    for (const auto& [c, gdp] : gdp_by_country) {
      if (c == code) row.gdp_ppp = gdp;
    }
    std::vector<double> counts, durations, online;
    for (const auto* h : list) {
      counts.push_back(h->downtimes);
      online.push_back(h->online_fraction());
      for (double d : h->durations_s) durations.push_back(d);
    }
    row.median_downtimes = Median(counts);
    row.median_duration_s = durations.empty() ? 0.0 : Median(durations);
    row.median_online_fraction = Median(online);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const CountryDowntimeRow& a,
                                         const CountryDowntimeRow& b) {
    return a.gdp_ppp < b.gdp_ppp;
  });
  return rows;
}

RegionSummary SummarizeRegions(const std::vector<HomeAvailability>& homes) {
  std::vector<double> gap_days_dev, gap_days_dvg, dur_dev, dur_dvg;
  for (const auto& h : homes) {
    // Between-downtime gaps, pooled across homes: a home with k downtimes
    // contributes k gaps of ~window/k days, so frequently-failing homes
    // dominate the pooled median — which is how "the median duration
    // between downtimes is less than a day" (§4.1) coexists with many
    // individually-quiet developing homes in Fig. 3.
    const double days_between =
        h.downtimes > 0 ? h.window_days / h.downtimes : h.window_days;
    const int copies = std::max(1, h.downtimes);
    for (int i = 0; i < copies; ++i) {
      (h.developed ? gap_days_dev : gap_days_dvg).push_back(days_between);
    }
    for (double d : h.durations_s) (h.developed ? dur_dev : dur_dvg).push_back(d);
  }
  RegionSummary s;
  s.median_days_between_downtimes_developed = Median(gap_days_dev);
  s.median_days_between_downtimes_developing = Median(gap_days_dvg);
  s.median_duration_s_developed = Median(dur_dev);
  s.median_duration_s_developing = Median(dur_dvg);
  return s;
}

}  // namespace bismark::analysis
