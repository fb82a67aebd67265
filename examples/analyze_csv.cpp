// Re-run the availability and infrastructure analyses from the *released*
// CSVs — what an external researcher could do with the paper's public data
// (http://data.gtnoise.net/bismark/imc2013/nat in the paper; a directory
// written by `world_deployment <seed> <dir>` here).
//
//   ./examples/analyze_csv <release-dir>
#include <cstdio>
#include <map>
#include <vector>

#include "analysis/diurnal.h"
#include "analysis/downtime.h"
#include "analysis/infrastructure.h"
#include "collect/import.h"
#include "core/stats.h"
#include "core/table.h"

using namespace bismark;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <release-dir>\n"
                 "hint: ./world_deployment 20131023 /tmp/bismark-data && %s /tmp/bismark-data\n",
                 argv[0], argv[0]);
    return 2;
  }

  collect::DataRepository repo(collect::DatasetWindows::Paper());
  const auto report = collect::ImportPublicDatasets(repo, argv[1]);
  std::printf("Imported %zu rows from %s (%zu heartbeat runs, %zu uptime, %zu capacity, "
              "%zu device-census, %zu wifi)\n",
              report.total_rows(), argv[1], report.rows<collect::HeartbeatRun>(),
              report.rows<collect::UptimeRecord>(), report.rows<collect::CapacityRecord>(),
              report.rows<collect::DeviceCountRecord>(), report.rows<collect::WifiScanRecord>());
  for (const auto& e : report.errors) std::fprintf(stderr, "  warning: %s\n", e.c_str());
  if (report.total_rows() == 0) {
    std::fprintf(stderr, "nothing imported — is %s a release directory?\n", argv[1]);
    return 1;
  }

  // The public release carries no home metadata (country/region), so the
  // regional splits of the paper need an external mapping. Everything
  // per-home still works; register bare home rows so the analyses run.
  std::printf("Registered %zu homes (no region metadata in the public release).\n\n",
              collect::RegisterReleaseHomes(repo));

  // Availability from heartbeats alone.
  const auto homes = analysis::AnalyzeAvailability(repo, {Minutes(10), 25.0});
  Cdf downtimes_per_day;
  Cdf online_fraction;
  for (const auto& h : homes) {
    downtimes_per_day.add(h.downtimes_per_day());
    online_fraction.add(h.online_fraction());
  }
  PrintBanner("Availability (from heartbeats.csv)");
  std::printf("qualifying homes: %zu\n", homes.size());
  std::printf("downtimes/day: %s\n", Summarize(downtimes_per_day).c_str());
  std::printf("online fraction: %s\n", Summarize(online_fraction).c_str());

  // Infrastructure from the device census.
  PrintBanner("Infrastructure (from devices.csv)");
  const auto devices_cdf = analysis::UniqueDevicesCdf(repo);
  std::printf("unique devices/home: %s\n", Summarize(devices_cdf).c_str());
  const auto bands = analysis::UniqueDevicesPerBand(repo);
  std::printf("2.4 GHz devices/home: %s\n", Summarize(bands.band24).c_str());
  std::printf("5 GHz devices/home:   %s\n", Summarize(bands.band5).c_str());

  // WiFi crowding.
  PrintBanner("Spectrum (from wifi.csv)");
  Cdf aps24;
  std::map<int, std::vector<double>> per_home;
  for (const auto& scan : repo.wifi_scans()) {
    if (scan.band == wireless::Band::k2_4GHz) {
      per_home[scan.home.value].push_back(scan.visible_aps);
    }
  }
  for (const auto& [id, values] : per_home) aps24.add(Median(values));
  std::printf("neighbour APs on 2.4 GHz (per-home median): %s\n", Summarize(aps24).c_str());

  std::printf("\nDone — same analysis code, released data only.\n");
  return 0;
}
