// Backend equivalence: one seeded deployment kept three ways — resident
// (one worker), spilled (fleet mode on four workers under a tiny memory
// budget) and column-backed (a v3 snapshot of the resident run, reopened)
// — must give every analysis entry point that `report`, `analyze` and the
// benches call the same numbers, printed at full precision, and the same
// fleet summary bytes. This is the guard that lets the read paths behind
// DataRepository be collapsed.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/capacity_stats.h"
#include "analysis/cgn.h"
#include "analysis/collection_artifacts.h"
#include "analysis/diurnal.h"
#include "analysis/downtime.h"
#include "analysis/fingerprint.h"
#include "analysis/fleet.h"
#include "analysis/infrastructure.h"
#include "analysis/timeline_view.h"
#include "analysis/usage.h"
#include "analysis/utilization.h"
#include "collect/column_snapshot.h"
#include "home/country.h"
#include "home/deployment.h"
#include "traffic/domains.h"

namespace bismark::analysis {
namespace {

namespace fs = std::filesystem;

/// Every number an analysis returns, one labelled line each, doubles at
/// %.17g so any difference in the last bit shows.
class Digest {
 public:
  void num(const char* label, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    text_ += label;
    text_ += '=';
    text_ += buf;
    text_ += '\n';
  }
  void str(const char* label, const std::string& v) {
    text_ += label;
    text_ += '=';
    text_ += v;
    text_ += '\n';
  }
  void cdf(const char* label, const Cdf& c) {
    num(label, static_cast<double>(c.size()));
    for (const Cdf::Point& p : c.points()) {
      num(label, p.x);
      num(label, p.p);
    }
  }
  void spread(const char* label, const MeanWithSpread& m) {
    num(label, m.mean);
    num(label, m.stddev);
    num(label, m.homes);
  }
  void mac(const char* label, net::MacAddress m) { str(label, m.to_string()); }
  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  std::string text_;
};

void DigestHomes(Digest& d, const char* label, const std::vector<HomeAvailability>& homes) {
  d.num(label, static_cast<double>(homes.size()));
  for (const HomeAvailability& h : homes) {
    d.num(label, h.home.value);
    d.str(label, h.country_code);
    d.num(label, h.developed);
    d.num(label, h.downtimes);
    d.num(label, h.window_days);
    d.num(label, h.online_days);
    for (const double s : h.durations_s) d.num(label, s);
  }
}

void DigestSection4(Digest& d, const collect::DataRepository& repo) {
  const auto homes = AnalyzeAvailability(repo, {Minutes(10), 25.0});
  DigestHomes(d, "availability", homes);
  const RegionSummary regions = SummarizeRegions(homes);
  d.num("regions.days_between.developed", regions.median_days_between_downtimes_developed);
  d.num("regions.days_between.developing", regions.median_days_between_downtimes_developing);
  d.num("regions.duration.developed", regions.median_duration_s_developed);
  d.num("regions.duration.developing", regions.median_duration_s_developing);
  const auto loose = AnalyzeAvailability(repo, {Minutes(10), 1.0});
  DigestHomes(d, "availability.loose", loose);
  d.cdf("frequency.developed", DowntimeFrequencyCdfs(loose).developed);
  d.cdf("duration.developing", DowntimeDurationCdfs(loose).developing);
  std::vector<std::pair<std::string, double>> gdp;
  for (const auto& c : home::StandardRoster()) gdp.emplace_back(c.code, c.gdp_ppp_per_capita);
  for (const CountryDowntimeRow& row : CountryDowntimeScatter(loose, gdp, 1)) {
    d.str("scatter.country", row.country_code);
    d.num("scatter.homes", row.homes);
    d.num("scatter.downtimes", row.median_downtimes);
    d.num("scatter.duration", row.median_duration_s);
    d.num("scatter.online", row.median_online_fraction);
  }

  const CollectionOutageReport outages = DetectCollectionOutages(repo);
  d.num("outages.reporting_homes", outages.reporting_homes);
  for (const Interval& i : outages.outages.intervals()) {
    d.num("outages.start", static_cast<double>(i.start.ms));
    d.num("outages.end", static_cast<double>(i.end.ms));
  }
  DigestHomes(d, "corrected", AnalyzeAvailabilityCorrected(repo, outages, {Minutes(10), 1.0}));

  for (const auto archetype : {AvailabilityArchetype::kAlwaysOn, AvailabilityArchetype::kAppliance,
                               AvailabilityArchetype::kFlaky}) {
    const collect::HomeId id = FindArchetype(repo, archetype);
    d.num("archetype", id.value);
    const auto runs = repo.heartbeat_runs_for(id);
    d.num("archetype.runs", static_cast<double>(runs.size()));
    d.num("archetype.downtimes",
          static_cast<double>(
              ExtractDowntimes(runs, repo.windows().heartbeats, Minutes(10)).size()));
    for (const TimelineDay& day :
         RenderTimeline(runs, TimeZone{}, repo.windows().heartbeats.start + Days(2), 3)) {
      d.str("timeline", day.cells);
      d.num("timeline.online", day.online_fraction);
    }
  }

  for (const HomeCapacitySummary& c : SummarizeCapacity(repo)) {
    d.num("capacity.home", c.home.value);
    d.num("capacity.probes", c.probes);
    d.num("capacity.down", c.median_down_mbps);
    d.num("capacity.up", c.median_up_mbps);
    d.num("capacity.cv", c.down_cv);
  }
  for (const CountryCapacityRow& row : CapacityByCountry(repo, 1)) {
    d.str("capacity.country", row.country_code);
    d.num("capacity.country.homes", row.homes);
    d.num("capacity.country.down", row.median_down_mbps);
    d.num("capacity.country.up", row.median_up_mbps);
  }
  const CapacityCdfs caps = CapacityDistributions(repo);
  d.cdf("capacity.developed", caps.developed_down);
  d.cdf("capacity.developing", caps.developing_down);
}

void DigestSection5(Digest& d, const collect::DataRepository& repo) {
  d.cdf("unique_devices", UniqueDevicesCdf(repo));
  d.num("unique_devices.mean", MeanUniqueDevices(repo));
  for (const bool developed : {true, false}) {
    const ConnectedByMedium medium = ConnectedDevices(repo, developed);
    d.spread("connected.wired", medium.wired);
    d.spread("connected.wireless", medium.wireless);
    const ConnectedByBand band = ConnectedWireless(repo, developed);
    d.spread("connected.24", band.band24);
    d.spread("connected.5", band.band5);
    d.num("all_ports", AllPortsUsedFraction(repo, developed));
  }
  const BandCdfs bands = UniqueDevicesPerBand(repo);
  d.cdf("band.24", bands.band24);
  d.cdf("band.5", bands.band5);
  const NeighborApCdfs aps = NeighborAps(repo);
  d.cdf("neighbors.developed", aps.developed);
  d.cdf("neighbors.developing", aps.developing);
  const NeighborApCdfs aps5 = NeighborAps5(repo);
  d.cdf("neighbors5.developed", aps5.developed);
  d.cdf("neighbors5.developing", aps5.developing);
  const AlwaysConnectedTable table5 = AlwaysConnected(repo);
  for (const AlwaysConnectedRow& row : {table5.developed, table5.developing}) {
    d.num("always.total", row.total_homes);
    d.num("always.wired", row.with_wired);
    d.num("always.wireless", row.with_wireless);
  }
}

void DigestProfile(Digest& d, const char* label, const DiurnalProfile& p) {
  for (const double v : p.weekday) d.num(label, v);
  for (const double v : p.weekend) d.num(label, v);
}

void DigestSection6(Digest& d, const collect::DataRepository& repo) {
  DigestProfile(d, "diurnal.wireless", WirelessDiurnalProfile(repo));
  DigestProfile(d, "diurnal.census", CensusDiurnalProfile(repo));

  const auto saturation = LinkSaturation(repo);
  for (const SaturationPoint& p : saturation) {
    d.num("saturation.home", p.home.value);
    d.num("saturation.cap_down", p.capacity_down_mbps);
    d.num("saturation.cap_up", p.capacity_up_mbps);
    d.num("saturation.down_p95", p.utilization_down_p95);
    d.num("saturation.up_p95", p.utilization_up_p95);
    d.num("saturation.minutes", p.minutes_observed);
  }
  for (const collect::HomeId id : OversaturatedUplinks(saturation)) d.num("bufferbloat", id.value);
  const UtilizationSeries series = UtilizationTimeseries(repo, BusiestHome(saturation));
  d.num("series.home", series.home.value);
  d.num("series.cap_down", series.capacity_down_mbps);
  d.num("series.cap_up", series.capacity_up_mbps);
  for (const UtilizationBucket& b : series.buckets) {
    d.num("series.start", static_cast<double>(b.start.ms));
    d.num("series.max_up", b.max_up_mbps);
    d.num("series.max_down", b.max_down_mbps);
    d.num("series.mb_up", b.bytes_up_mb);
    d.num("series.mb_down", b.bytes_down_mb);
  }

  for (const VendorCount& v : VendorHistogram(repo)) {
    d.num("vendor", static_cast<int>(v.vendor));
    d.num("vendor.devices", v.devices);
  }
  const DeviceConcentration devices = DeviceUsageShares(repo);
  d.num("device_shares.homes", devices.homes);
  for (const double s : devices.share_by_rank) d.num("device_shares", s);
  for (const DomainPrevalence& p : TopDomainPrevalence(repo)) {
    d.str("prevalence", p.domain);
    d.num("prevalence.top5", p.homes_top5);
    d.num("prevalence.top10", p.homes_top10);
  }
  const DomainConcentration domains = DomainUsageShares(repo);
  d.num("domains.homes", domains.homes);
  d.num("domains.whitelisted_volume", domains.whitelisted_volume_share);
  d.num("domains.whitelisted_conns", domains.whitelisted_conn_share);
  for (const DomainShare& s : domains.by_rank) {
    d.num("domains.volume", s.volume_share);
    d.num("domains.conns_by_conn", s.conns_by_conn_rank);
    d.num("domains.conns_by_vol", s.conns_by_vol_rank);
  }
  for (const auto vendor : {net::VendorClass::kApple, net::VendorClass::kUnknown}) {
    const net::MacAddress device = FindDeviceByVendor(repo, vendor);
    d.mac("device", device);
    d.num("device.concentration", DomainConcentrationIndex(repo, device));
    for (const DeviceDomainShare& s : DeviceDomainProfile(repo, device)) {
      d.str("device.domain", s.domain);
      d.num("device.share", s.share);
    }
  }

  const auto catalog = traffic::DomainCatalog::BuildStandard();
  for (const DeviceFeatures& f : ExtractAllDeviceFeatures(repo, catalog, KB(100))) {
    d.mac("features.device", f.device);
    d.num("features.vendor", static_cast<int>(f.vendor));
    d.num("features.bytes", static_cast<double>(f.total_bytes.count));
    d.num("features.flows", static_cast<double>(f.flows));
    d.num("features.domains", f.distinct_domains);
    d.num("features.top_share", f.top_domain_share);
    d.num("features.streaming", f.streaming_share);
    d.num("features.per_flow", f.bytes_per_flow);
    d.num("features.class", static_cast<int>(ClassifyDevice(f)));
    d.num("features.again",
          ExtractDeviceFeatures(repo, catalog, f.device).top_domain_share);
  }

  const CgnSummary cgn = SummarizeCgn(repo);
  d.num("cgn.homes", cgn.homes);
  d.num("cgn.cgns", cgn.cgns);
  d.num("cgn.out", static_cast<double>(cgn.translations_out));
  d.num("cgn.in", static_cast<double>(cgn.translations_in));
  d.num("cgn.exhaustion", static_cast<double>(cgn.exhaustion_drops));
  d.num("cgn.inbound_drops", static_cast<double>(cgn.inbound_drops));
  d.num("cgn.blocks", static_cast<double>(cgn.blocks_allocated));
  d.num("cgn.exhaustion_rate", cgn.exhaustion_drop_rate);
  d.num("cgn.inbound_rate", cgn.inbound_drop_rate);
  d.num("cgn.homes_exhausted", cgn.homes_exhausted);
  d.num("cgn.peak_min", cgn.ports_peak_min);
  d.num("cgn.peak_max", cgn.ports_peak_max);
  d.num("cgn.peak_mean", cgn.ports_peak_mean);
  d.num("cgn.peak_median", cgn.ports_peak_median);
  d.num("cgn.peak_p90", cgn.ports_peak_p90);
  for (const CgnInstanceSummary& s : cgn.per_cgn) {
    d.num("cgn.instance", s.cgn_id);
    d.num("cgn.instance.homes", s.homes);
    d.num("cgn.instance.out", static_cast<double>(s.translations_out));
    d.num("cgn.instance.peak", s.ports_peak_max);
  }
}

std::string AnalysisDigest(const collect::DataRepository& repo) {
  Digest d;
  const auto counts = repo.counts();
  for (const std::size_t n :
       {counts.heartbeat_runs, counts.uptime, counts.capacity, counts.device_counts,
        counts.wifi_scans, counts.flows, counts.throughput_minutes, counts.dns,
        counts.device_traffic, counts.cgn_events}) {
    d.num("rows", static_cast<double>(n));
  }
  d.num("total_rows", static_cast<double>(repo.total_rows()));
  DigestSection4(d, repo);
  DigestSection5(d, repo);
  DigestSection6(d, repo);
  return d.text();
}

home::DeploymentOptions StudyOptions() {
  home::DeploymentOptions options;
  options.seed = 20131023;
  options.windows = collect::DatasetWindows::Compressed(MakeTime({2012, 10, 1}), 1);
  options.homes = 48;
  options.traffic_homes = 6;
  options.bufferbloat_homes = 1;
  options.collector_outages_per_month = 8.0;
  options.cgn = true;
  return options;
}

/// The three backings of one seeded run, built once for the suite.
class BackendEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    root_ = new fs::path(fs::temp_directory_path() /
                         ("bsmk-test-equivalence-" + std::to_string(::getpid())));
    fs::remove_all(*root_);

    // The resident run on one worker, the spilled run and the snapshot
    // writer on four: the backings must agree across worker counts too.
    home::DeploymentOptions serial = StudyOptions();
    serial.workers = 1;
    resident_ = home::Deployment::RunStudy(serial).release();

    home::DeploymentOptions fleet = StudyOptions();
    fleet.workers = 4;
    fleet.memory_budget_bytes = 1 << 20;  // tiny: every kind spills in many sections
    fleet.spill_dir = (*root_ / "spill").string();
    spilled_ = home::Deployment::RunStudy(fleet).release();

    std::string error;
    const std::string snap = (*root_ / "snapshot").string();
    ASSERT_TRUE(collect::SaveColumnSnapshot(resident_->repository(), snap, &error, 4)) << error;
    columns_ = collect::OpenColumnSnapshot(snap, &error).release();
    ASSERT_NE(columns_, nullptr) << error;
  }

  static void TearDownTestSuite() {
    delete columns_;
    delete spilled_;
    delete resident_;
    fs::remove_all(*root_);
    delete root_;
  }

  static const collect::DataRepository& resident() { return resident_->repository(); }
  static const collect::DataRepository& spilled() { return spilled_->repository(); }
  static const collect::DataRepository& columns() { return *columns_; }

  static fs::path* root_;
  static home::Deployment* resident_;
  static home::Deployment* spilled_;
  static collect::DataRepository* columns_;
};

fs::path* BackendEquivalence::root_ = nullptr;
home::Deployment* BackendEquivalence::resident_ = nullptr;
home::Deployment* BackendEquivalence::spilled_ = nullptr;
collect::DataRepository* BackendEquivalence::columns_ = nullptr;

TEST_F(BackendEquivalence, EveryKindIsPopulatedInEveryBacking) {
  ASSERT_TRUE(spilled().spilling());
  ASSERT_TRUE(columns().column_backed());
  for (const collect::DataRepository* repo : {&resident(), &spilled(), &columns()}) {
    collect::ForEachRecordType([&](auto tag) {
      using T = typename decltype(tag)::type;
      EXPECT_GT(repo->row_count<T>(), 0u) << collect::Schema<T>::kKindName;
      EXPECT_EQ(repo->row_count<T>(), resident().row_count<T>()) << collect::Schema<T>::kKindName;
    });
    EXPECT_EQ(repo->homes(), resident().homes());
  }
}

TEST_F(BackendEquivalence, AnalysisDigestIsIdenticalAcrossBackings) {
  const std::string want = AnalysisDigest(resident());
  EXPECT_GT(want.size(), 4000u);
  EXPECT_EQ(AnalysisDigest(spilled()), want);
  EXPECT_EQ(AnalysisDigest(columns()), want);
}

TEST_F(BackendEquivalence, FleetSummaryIsIdenticalAcrossBackings) {
  const std::string want = SerializeFleetSummary(SummarizeFleet(resident()));
  EXPECT_EQ(SerializeFleetSummary(SummarizeFleet(spilled())), want);
  EXPECT_EQ(SerializeFleetSummary(SummarizeFleet(columns())), want);
}

TEST_F(BackendEquivalence, ColumnarSummaryIsWorkerInvariant) {
  for (std::size_t kind = 0; kind < collect::kRecordKinds; ++kind) {
    ASSERT_EQ(columns().columns()->stripes_of_kind(kind), 1u) << "kind " << kind;
  }
  const std::string one = SerializeFleetSummary(SummarizeFleet(columns(), 1));
  EXPECT_EQ(SerializeFleetSummary(SummarizeFleet(columns(), 4)), one);
  // Every kind of this run fits one stripe, so the per-stripe fold adopts
  // each partial whole and equals the finish pass.
  EXPECT_EQ(one, SerializeFleetSummary(SummarizeFleet(columns())));
}

}  // namespace
}  // namespace bismark::analysis
