#include "analysis/infrastructure.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core/stats.h"

namespace bismark::analysis {

namespace {
/// Per-home accumulation of the census rows.
struct HomeCensus {
  RunningStats wired;
  RunningStats wireless;
  RunningStats band24;
  RunningStats band5;
  int max_unique_24{0};
  int max_unique_5{0};
  int samples_all_ports{0};
  int samples{0};
};

std::map<int, HomeCensus> CollectCensus(const collect::DataRepository& repo) {
  std::map<int, HomeCensus> by_home;
  repo.for_each_row<collect::DeviceCountRecord>([&](const collect::DeviceCountRecord& rec) {
    HomeCensus& c = by_home[rec.home.value];
    c.wired.add(rec.wired);
    c.wireless.add(rec.wireless_total());
    c.band24.add(rec.wireless_24);
    c.band5.add(rec.wireless_5);
    c.max_unique_24 = std::max(c.max_unique_24, rec.unique_24);
    c.max_unique_5 = std::max(c.max_unique_5, rec.unique_5);
    if (rec.wired >= 4) ++c.samples_all_ports;
    ++c.samples;
  });
  return by_home;
}

MeanWithSpread AcrossHomes(const std::vector<double>& home_means) {
  RunningStats stats;
  for (double v : home_means) stats.add(v);
  return MeanWithSpread{stats.mean(), stats.stddev(), static_cast<int>(stats.count())};
}

/// The largest unique_total of every home with a census row, floored at 0,
/// in ascending home id order (MeanUniqueDevices' floating-point mean
/// depends on that order). One hash lookup per row, and a column-backed
/// read decodes only the two fields it uses.
std::vector<int> MaxUniqueDevicesByHome(const collect::DataRepository& repo) {
  using collect::DeviceCountRecord;
  std::unordered_map<int, int> by_home;
  repo.for_each_row<DeviceCountRecord>(
      [&](const DeviceCountRecord& rec) {
        int& max = by_home.try_emplace(rec.home.value, 0).first->second;
        max = std::max(max, rec.unique_total);
      },
      collect::FieldsOf<&DeviceCountRecord::home, &DeviceCountRecord::unique_total>);
  std::vector<std::pair<int, int>> homes(by_home.begin(), by_home.end());
  std::sort(homes.begin(), homes.end());
  std::vector<int> out;
  out.reserve(homes.size());
  for (const auto& [home, max] : homes) out.push_back(max);
  return out;
}
}  // namespace

Cdf UniqueDevicesCdf(const collect::DataRepository& repo) {
  Cdf cdf;
  for (const int max : MaxUniqueDevicesByHome(repo)) cdf.add(max);
  return cdf;
}

double MeanUniqueDevices(const collect::DataRepository& repo) {
  RunningStats stats;
  for (const int max : MaxUniqueDevicesByHome(repo)) stats.add(max);
  return stats.mean();
}

ConnectedByMedium ConnectedDevices(const collect::DataRepository& repo, bool developed) {
  const auto census = CollectCensus(repo);
  std::vector<double> wired, wireless;
  for (const auto& [home, c] : census) {
    const auto* info = repo.find_home(collect::HomeId{home});
    if (!info || info->developed != developed) continue;
    wired.push_back(c.wired.mean());
    wireless.push_back(c.wireless.mean());
  }
  return ConnectedByMedium{AcrossHomes(wired), AcrossHomes(wireless)};
}

ConnectedByBand ConnectedWireless(const collect::DataRepository& repo, bool developed) {
  const auto census = CollectCensus(repo);
  std::vector<double> b24, b5;
  for (const auto& [home, c] : census) {
    const auto* info = repo.find_home(collect::HomeId{home});
    if (!info || info->developed != developed) continue;
    b24.push_back(c.band24.mean());
    b5.push_back(c.band5.mean());
  }
  return ConnectedByBand{AcrossHomes(b24), AcrossHomes(b5)};
}

BandCdfs UniqueDevicesPerBand(const collect::DataRepository& repo) {
  BandCdfs cdfs;
  for (const auto& [home, census] : CollectCensus(repo)) {
    cdfs.band24.add(census.max_unique_24);
    cdfs.band5.add(census.max_unique_5);
  }
  return cdfs;
}

namespace {
NeighborApCdfs NeighborApsOnBand(const collect::DataRepository& repo, wireless::Band band) {
  std::map<int, std::vector<double>> aps_by_home;
  repo.for_each_row<collect::WifiScanRecord>([&](const collect::WifiScanRecord& scan) {
    if (scan.band != band) return;
    aps_by_home[scan.home.value].push_back(scan.visible_aps);
  });
  NeighborApCdfs cdfs;
  for (const auto& [home, values] : aps_by_home) {
    const auto* info = repo.find_home(collect::HomeId{home});
    if (!info) continue;
    (info->developed ? cdfs.developed : cdfs.developing).add(Median(values));
  }
  return cdfs;
}
}  // namespace

NeighborApCdfs NeighborAps(const collect::DataRepository& repo) {
  return NeighborApsOnBand(repo, wireless::Band::k2_4GHz);
}

NeighborApCdfs NeighborAps5(const collect::DataRepository& repo) {
  return NeighborApsOnBand(repo, wireless::Band::k5GHz);
}

AlwaysConnectedTable AlwaysConnected(const collect::DataRepository& repo) {
  AlwaysConnectedTable table;
  for (const auto& info : repo.homes()) {
    if (!info.reports_devices) continue;
    AlwaysConnectedRow& row = info.developed ? table.developed : table.developing;
    ++row.total_homes;
    if (info.has_always_wired) ++row.with_wired;
    if (info.has_always_wireless) ++row.with_wireless;
  }
  return table;
}

double AllPortsUsedFraction(const collect::DataRepository& repo, bool developed) {
  const auto census = CollectCensus(repo);
  int homes = 0;
  int homes_all_ports = 0;
  for (const auto& [home, c] : census) {
    const auto* info = repo.find_home(collect::HomeId{home});
    if (!info || info->developed != developed) continue;
    ++homes;
    if (c.samples_all_ports > 0) ++homes_all_ports;
  }
  return homes ? static_cast<double>(homes_all_ports) / homes : 0.0;
}

}  // namespace bismark::analysis
