// Micro-benchmarks (google-benchmark) for the hot substrate paths: NAT
// translation, DNS resolution, interval arithmetic, throughput metering,
// the household census, the event engine, the statistics kernels, CSV
// formatting and the spill merge.
//
//   build/bench/bench_micro                          # console tables
//   build/bench/bench_micro --json BENCH_micro.json  # plus JSON artifact
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "analysis/fleet.h"
#include "bismark/anonymize.h"
#include "bismark/meter.h"
#include "bismark/services.h"
#include "collect/column_snapshot.h"
#include "collect/export.h"
#include "collect/import.h"
#include "collect/repository.h"
#include "collect/spill.h"
#include "common.h"
#include "core/cdf.h"
#include "core/crc32c.h"
#include "core/csv.h"
#include "core/intervals.h"
#include "core/rng.h"
#include "core/stats.h"
#include "home/country.h"
#include "home/household.h"
#include "net/cgn.h"
#include "net/dns.h"
#include "net/nat.h"
#include "net/wire.h"
#include "obs/json.h"
#include "sim/engine.h"
#include "traffic/domains.h"

namespace bismark {
namespace {

const TimePoint t0 = MakeTime({2013, 4, 1});

void BM_NatOutboundNewFlow(benchmark::State& state) {
  net::NatTable nat(net::NatConfig{});
  std::uint16_t port = 1;
  std::uint32_t host = 1;
  for (auto _ : state) {
    net::Packet p;
    p.timestamp = t0;
    p.tuple = {net::Ipv4Address(10, 0, static_cast<std::uint8_t>(host >> 8 & 0xff),
                                static_cast<std::uint8_t>(host & 0xff)),
               net::Ipv4Address(93, 184, 216, 34), port, 443, net::Protocol::kTcp};
    p.lan_mac = net::MacAddress::FromParts(0x001EC2, host);
    benchmark::DoNotOptimize(nat.translate_outbound(p));
    if (++port == 0) port = 1;
    ++host;
    if (nat.active_mappings() > 50000) {
      state.PauseTiming();
      nat.expire_idle(t0 + Days(365));
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_NatOutboundNewFlow);

void BM_NatOutboundExistingFlow(benchmark::State& state) {
  net::NatTable nat(net::NatConfig{});
  net::Packet p;
  p.timestamp = t0;
  p.tuple = {net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(93, 184, 216, 34), 1234, 443,
             net::Protocol::kTcp};
  p.lan_mac = net::MacAddress::FromParts(0x001EC2, 1);
  nat.translate_outbound(p);
  for (auto _ : state) {
    net::Packet q;
    q.timestamp = t0;
    q.tuple = {net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(93, 184, 216, 34), 1234, 443,
               net::Protocol::kTcp};
    q.lan_mac = p.lan_mac;
    benchmark::DoNotOptimize(nat.translate_outbound(q));
  }
}
BENCHMARK(BM_NatOutboundExistingFlow);

void BM_NatInbound(benchmark::State& state) {
  net::NatTable nat(net::NatConfig{});
  net::Packet out;
  out.timestamp = t0;
  out.tuple = {net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(93, 184, 216, 34), 1234, 443,
               net::Protocol::kTcp};
  out.lan_mac = net::MacAddress::FromParts(0x001EC2, 1);
  nat.translate_outbound(out);
  const net::FiveTuple reply = out.tuple.reversed();
  for (auto _ : state) {
    net::Packet in;
    in.timestamp = t0;
    in.tuple = reply;
    in.direction = net::Direction::kDownstream;
    benchmark::DoNotOptimize(nat.translate_inbound(in));
  }
}
BENCHMARK(BM_NatInbound);

// --- wire dataplane ----------------------------------------------------------

net::Packet WireBenchPacket() {
  net::Packet p;
  p.timestamp = t0;
  p.tuple = {net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(93, 184, 216, 34), 1234, 443,
             net::Protocol::kTcp};
  p.size = B(256);
  p.lan_mac = net::MacAddress::FromParts(0x001EC2, 1);
  return p;
}

void BM_WireEncode(benchmark::State& state) {
  const net::Packet p = WireBenchPacket();
  const auto gw = net::MacAddress::FromParts(0x02157e, 0);
  std::array<std::byte, net::wire::kMaxFrameBytes> buf{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::wire::EncodeFrame(p, p.lan_mac, gw, buf));
  }
}
BENCHMARK(BM_WireEncode);

void BM_WireParse(benchmark::State& state) {
  const net::Packet p = WireBenchPacket();
  std::array<std::byte, net::wire::kMaxFrameBytes> buf{};
  const std::size_t len = net::wire::EncodeFrame(
      p, p.lan_mac, net::MacAddress::FromParts(0x02157e, 0), buf);
  const std::span<const std::byte> frame(buf.data(), len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::wire::ParseFrame(frame));
  }
}
BENCHMARK(BM_WireParse);

/// The CI-gated hot path: wire-path NAT translation of an established flow —
/// fixed-offset tuple extraction, one hash lookup, cached-delta rewrite.
/// Each iteration restores the pristine frame first so the lookup always
/// hits the same mapping (the memcpy is part of the measured loop for both
/// the baseline and any comparison run, so the gate stays apples-to-apples).
void BM_NatTranslateOutbound(benchmark::State& state) {
  net::NatTable nat(net::NatConfig{});
  const net::Packet p = WireBenchPacket();
  std::array<std::byte, net::wire::kMaxFrameBytes> pristine{};
  const std::size_t len = net::wire::EncodeFrame(
      p, p.lan_mac, net::MacAddress::FromParts(0x02157e, 0), pristine);
  std::array<std::byte, net::wire::kMaxFrameBytes> work = pristine;
  nat.translate_outbound_wire(std::span<std::byte>(work.data(), len), t0, p.lan_mac);
  for (auto _ : state) {
    std::memcpy(work.data(), pristine.data(), len);
    benchmark::DoNotOptimize(
        nat.translate_outbound_wire(std::span<std::byte>(work.data(), len), t0, p.lan_mac));
  }
}
BENCHMARK(BM_NatTranslateOutbound);

/// Same shape for the CGN tier: established-mapping byte translation.
void BM_CgnTranslate(benchmark::State& state) {
  net::CgnTable cgn(net::CgnConfig{});
  net::Packet p = WireBenchPacket();
  p.tuple.src_ip = net::Ipv4Address(100, 64, 0, 1);  // post-home-NAT source
  std::array<std::byte, net::wire::kMaxFrameBytes> pristine{};
  const std::size_t len = net::wire::EncodeFrame(
      p, p.lan_mac, net::MacAddress::FromParts(0x02157e, 0), pristine);
  std::array<std::byte, net::wire::kMaxFrameBytes> work = pristine;
  cgn.translate_outbound_wire(0, std::span<std::byte>(work.data(), len), t0);
  for (auto _ : state) {
    std::memcpy(work.data(), pristine.data(), len);
    benchmark::DoNotOptimize(
        cgn.translate_outbound_wire(0, std::span<std::byte>(work.data(), len), t0));
  }
}
BENCHMARK(BM_CgnTranslate);

void BM_DnsResolveCacheHit(benchmark::State& state) {
  net::ZoneCatalog zones;
  const auto catalog = traffic::DomainCatalog::BuildStandard();
  catalog.install_zones(zones);
  net::DnsResolver resolver(zones);
  resolver.resolve("google.com", t0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.resolve("google.com", t0 + Seconds(1)));
  }
}
BENCHMARK(BM_DnsResolveCacheHit);

void BM_DnsResolveCacheMiss(benchmark::State& state) {
  net::ZoneCatalog zones;
  const auto catalog = traffic::DomainCatalog::BuildStandard();
  catalog.install_zones(zones);
  net::DnsResolver resolver(zones);
  for (auto _ : state) {
    state.PauseTiming();
    resolver.flush();
    state.ResumeTiming();
    benchmark::DoNotOptimize(resolver.resolve("netflix.com", t0));
  }
}
BENCHMARK(BM_DnsResolveCacheMiss);

void BM_IntervalSetAdd(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    IntervalSet set;
    state.ResumeTiming();
    for (int i = 0; i < 200; ++i) {
      const double start = rng.uniform(0.0, 1000.0);
      set.add(t0 + Hours(start), t0 + Hours(start + rng.uniform(0.1, 5.0)));
    }
    benchmark::DoNotOptimize(set.total());
  }
}
BENCHMARK(BM_IntervalSetAdd);

void BM_IntervalSetIntersect(benchmark::State& state) {
  Rng rng(2);
  IntervalSet a, b;
  for (int i = 0; i < 500; ++i) {
    const double s1 = rng.uniform(0.0, 5000.0);
    a.add(t0 + Hours(s1), t0 + Hours(s1 + 2.0));
    const double s2 = rng.uniform(0.0, 5000.0);
    b.add(t0 + Hours(s2), t0 + Hours(s2 + 3.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.intersect(b));
  }
}
BENCHMARK(BM_IntervalSetIntersect);

void BM_MeterRateChanges(benchmark::State& state) {
  gateway::ThroughputMeter meter(collect::HomeId{1}, nullptr);
  TimePoint t = t0;
  for (auto _ : state) {
    meter.add_rate(net::Direction::kDownstream, 4e6, t);
    t += Seconds(4);
    meter.remove_rate(net::Direction::kDownstream, 4e6, t);
    t += Seconds(4);
  }
}
BENCHMARK(BM_MeterRateChanges);

/// One iteration is one add/remove pair: a constant-rate flow for 10
/// minutes, then a day idle, starting off the second boundary.
void BM_MeterLongFlow(benchmark::State& state) {
  std::int64_t minutes = 0;
  gateway::ThroughputMeter meter(collect::HomeId{1},
                                 [&minutes](const collect::ThroughputMinute&) { ++minutes; });
  TimePoint t = t0 + Millis(437);
  for (auto _ : state) {
    meter.add_rate(net::Direction::kDownstream, 4e6, t);
    t += Minutes(10);
    meter.remove_rate(net::Direction::kDownstream, 4e6, t);
    t += Days(1);
    benchmark::DoNotOptimize(minutes);
  }
}
BENCHMARK(BM_MeterLongFlow);

/// Counts the records a service writes and keeps none.
class CountingSink final : public collect::RecordSink {
 public:
  void add_record(collect::Record) override { ++records; }
  std::int64_t records{0};
};

/// The hourly device census and the WiFi scans of one 4-week home: both
/// query the household's census at every sample. A fresh household per
/// iteration (built untimed), so the census index is built inside the
/// timed region as in a run.
void BM_HouseholdCensus(benchmark::State& state) {
  const auto catalog = traffic::DomainCatalog::BuildStandard();
  const gateway::Anonymizer anonymizer(catalog, {});
  const Interval window{t0, t0 + Days(28)};
  CountingSink sink;
  std::optional<home::Household> household;
  for (auto _ : state) {
    state.PauseTiming();
    household.emplace(collect::HomeId{1}, home::CountryByCode("US"), window,
                      std::vector<Interval>{window}, anonymizer, nullptr, Rng(13));
    state.ResumeTiming();
    const IntervalSet& router_on = household->timeline().router_on;
    gateway::ReportDeviceCounts(sink, household->id(), *household, router_on, window);
    gateway::ReportWifiScans(sink, household->id(), *household, household->neighborhood(),
                             router_on, window, Rng(7));
    benchmark::DoNotOptimize(sink.records);
  }
  state.counters["records"] = benchmark::Counter(static_cast<double>(sink.records),
                                                 benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_HouseholdCensus)->Unit(benchmark::kMicrosecond);

void BM_EngineScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine(t0);
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_after(Seconds(i % 97), [] {});
    }
    engine.run_until(t0 + Hours(1));
    benchmark::DoNotOptimize(engine.executed());
  }
}
BENCHMARK(BM_EngineScheduleRun);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(200, 0.9);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_CdfQuantile(benchmark::State& state) {
  Cdf cdf;
  Rng rng(4);
  for (int i = 0; i < 100000; ++i) cdf.add(rng.uniform(0.0, 1000.0));
  (void)cdf.median();  // force the sort outside the loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(cdf.quantile(0.95));
  }
}
BENCHMARK(BM_CdfQuantile);

/// One seeded 2^20-value stream per fleet sketch shape: 0 is zero-heavy
/// small integers (the wifi visible-APs and associated-clients sketches),
/// 1 is heavy-tailed and continuous (flow sizes).
const std::vector<double>& SketchStream(std::int64_t shape) {
  static const auto* streams = [] {
    auto* s = new std::array<std::vector<double>, 2>;
    Rng rng(5);
    for (int i = 0; i < (1 << 20); ++i) {
      (*s)[0].push_back(rng.bernoulli(0.6) ? 0.0 : static_cast<double>(rng.uniform_int(1, 30)));
      (*s)[1].push_back(rng.pareto(1.0, 1.2));
    }
    return s;
  }();
  return (*streams)[static_cast<std::size_t>(shape)];
}

/// A fleet sketch fed one value per call, as the capacity feeder does.
void BM_SketchAddEach(benchmark::State& state) {
  const auto& values = SketchStream(state.range(0));
  for (auto _ : state) {
    QuantileSketch sketch;
    for (const double v : values) sketch.add(v);
    benchmark::DoNotOptimize(sketch.tuples());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_SketchAddEach)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// The same stream fed one read batch (4096 values) per call, as the
/// per-row fleet feeders do; the sketch bytes are identical.
void BM_SketchAddBatch(benchmark::State& state) {
  const std::span<const double> values = SketchStream(state.range(0));
  for (auto _ : state) {
    QuantileSketch sketch;
    for (std::size_t at = 0; at < values.size(); at += 4096) {
      sketch.add(values.subspan(at, std::min<std::size_t>(4096, values.size() - at)));
    }
    benchmark::DoNotOptimize(sketch.tuples());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_SketchAddBatch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --- record layer: CSV vs snapshot persistence ------------------------------

/// A ~140k-row repository with every data set represented (DNS largest by
/// far, as in a real deployment), shared by the
/// export/import/snapshot benchmarks below.
const collect::DataRepository& RecordBenchRepo() {
  using namespace collect;
  static const DataRepository* repo = [] {
    const Interval all{TimePoint{0}, TimePoint{1'000'000'000}};
    auto* r = new DataRepository(DatasetWindows{all, all, all, all, all, all});
    // A roster so the analyze benchmarks exercise the per-home and
    // per-country aggregation, not just the per-row sketches.
    static const char* kCountries[] = {"US", "CA", "GB", "FR", "BR", "IN", "ZA", "JP"};
    for (int i = 0; i < 126; ++i) {
      HomeInfo info;
      info.id = HomeId{i};
      info.country_code = kCountries[i % 8];
      info.developed = (i % 3) != 0;
      info.reports_uptime = true;
      info.reports_devices = true;
      r->register_home(info);
    }
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
      const auto start = TimePoint{rng.uniform_int(0, 500'000'000)};
      r->add(HeartbeatRun{HomeId{i % 126}, start, start + Hours(rng.uniform(1.0, 100.0))});
    }
    for (int i = 0; i < 10000; ++i) {
      r->add(UptimeRecord{HomeId{i % 126}, TimePoint{rng.uniform_int(0, 500'000'000)},
                          Hours(rng.uniform(0.0, 400.0))});
    }
    for (int i = 0; i < 2000; ++i) {
      r->add(CapacityRecord{HomeId{i % 126}, TimePoint{rng.uniform_int(0, 500'000'000)},
                            Mbps(rng.uniform(1.0, 100.0)), Mbps(rng.uniform(0.5, 10.0))});
    }
    for (int i = 0; i < 5000; ++i) {
      DeviceCountRecord dc;
      dc.home = HomeId{i % 126};
      dc.sampled = TimePoint{rng.uniform_int(0, 500'000'000)};
      dc.wired = static_cast<int>(rng.uniform_int(0, 4));
      dc.wireless_24 = static_cast<int>(rng.uniform_int(0, 9));
      dc.unique_total = dc.wired + dc.wireless_24;
      r->add(dc);
    }
    for (int i = 0; i < 5000; ++i) {
      WifiScanRecord scan;
      scan.home = HomeId{i % 126};
      scan.scanned = TimePoint{rng.uniform_int(0, 500'000'000)};
      scan.band = (i % 3) ? wireless::Band::k2_4GHz : wireless::Band::k5GHz;
      scan.channel = static_cast<int>(rng.uniform_int(1, 12));
      scan.visible_aps = static_cast<int>(rng.uniform_int(0, 30));
      r->add(scan);
    }
    for (int i = 0; i < 8000; ++i) {
      TrafficFlowRecord flow;
      flow.home = HomeId{i % 126};
      flow.flow = net::FlowId{static_cast<std::uint64_t>(i)};
      flow.first_packet = TimePoint{rng.uniform_int(0, 500'000'000)};
      flow.last_packet = flow.first_packet + Seconds(rng.uniform(0.1, 600.0));
      flow.protocol = (i % 4) ? net::Protocol::kTcp : net::Protocol::kUdp;
      flow.dst_port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
      flow.device_mac = net::MacAddress::FromParts(0x001EC2, static_cast<std::uint32_t>(i));
      flow.bytes_up = Bytes{rng.uniform_int(100, 1'000'000)};
      flow.bytes_down = Bytes{rng.uniform_int(100, 50'000'000)};
      flow.packets_up = static_cast<std::uint64_t>(rng.uniform_int(1, 1000));
      flow.packets_down = static_cast<std::uint64_t>(rng.uniform_int(1, 40000));
      flow.domain = (i % 5) ? "netflix.com" : "anon-3f2a9b";
      flow.domain_anonymized = (i % 5) == 0;
      r->add(std::move(flow));
    }
    for (int i = 0; i < 5000; ++i) {
      ThroughputMinute tm;
      tm.home = HomeId{i % 126};
      tm.minute_start = TimePoint{rng.uniform_int(0, 500'000'000)};
      tm.bytes_down = Bytes{rng.uniform_int(0, 100'000'000)};
      tm.peak_down_bps = rng.uniform(0.0, 2e7);
      r->add(tm);
    }
    // DNS is the largest data set in a real deployment (every lookup from
    // every device); size it accordingly so persistence benchmarks see a
    // realistic kind mix.
    for (int i = 0; i < 100000; ++i) {
      DnsLogRecord dns;
      dns.home = HomeId{i % 126};
      dns.when = TimePoint{rng.uniform_int(0, 500'000'000)};
      dns.device_mac = net::MacAddress::FromParts(0x001EC2, static_cast<std::uint32_t>(i));
      dns.query = (i % 3) ? "www.example.com" : "cdn.netflix.com";
      dns.a_records = 1;
      r->add(dns);
    }
    for (int i = 0; i < 500; ++i) {
      DeviceTrafficRecord dt;
      dt.home = HomeId{i % 126};
      dt.device_mac = net::MacAddress::FromParts(0x001EC2, static_cast<std::uint32_t>(i));
      dt.bytes_total = Bytes{rng.uniform_int(0, 1'000'000'000)};
      dt.flows = static_cast<std::uint64_t>(rng.uniform_int(1, 5000));
      r->add(dt);
    }
    r->finalize_deterministic_order();
    return r;
  }();
  return *repo;
}

/// The full-fidelity CSV text per data set (the import benchmarks' input).
const std::array<std::string, collect::kRecordKinds>& RecordBenchCsv() {
  static const auto* corpus = [] {
    auto* files = new std::array<std::string, collect::kRecordKinds>;
    collect::ForEachRecordType([&](auto tag) {
      using T = typename decltype(tag)::type;
      std::ostringstream out;
      collect::ExportDatasetCsv<T>(RecordBenchRepo(), out);
      (*files)[collect::kRecordIndexOf<T>] = out.str();
    });
    return files;
  }();
  return *corpus;
}

void BM_CsvExportAllDatasets(benchmark::State& state) {
  const auto& repo = RecordBenchRepo();
  for (auto _ : state) {
    std::size_t rows = 0;
    collect::ForEachRecordType([&](auto tag) {
      using T = typename decltype(tag)::type;
      std::ostringstream out;
      rows += collect::ExportDatasetCsv<T>(repo, out);
      benchmark::DoNotOptimize(out);
    });
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(RecordBenchRepo().total_rows()));
}
BENCHMARK(BM_CsvExportAllDatasets)->Unit(benchmark::kMillisecond);

void BM_CsvImportAllDatasets(benchmark::State& state) {
  const auto& corpus = RecordBenchCsv();
  const Interval all{TimePoint{0}, TimePoint{1'000'000'000}};
  for (auto _ : state) {
    collect::DataRepository repo(collect::DatasetWindows{all, all, all, all, all, all});
    collect::ImportReport report;
    collect::ForEachRecordType([&](auto tag) {
      using T = typename decltype(tag)::type;
      std::istringstream in(corpus[collect::kRecordIndexOf<T>]);
      collect::ImportDatasetCsv<T>(repo, in, report);
    });
    benchmark::DoNotOptimize(repo.total_rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(RecordBenchRepo().total_rows()));
}
BENCHMARK(BM_CsvImportAllDatasets)->Unit(benchmark::kMillisecond);

/// The string-per-cell path that in-place cells replaced, kept verbatim as
/// the reference: the nine integer CsvEncode overloads and CsvWriter's
/// former row building, where every cell is a std::string that is scanned
/// for quotes and appended to a std::string buffer. The other member types
/// use collect::CsvEncode, as both paths do.
namespace string_cells {
using collect::CsvEncode;
[[nodiscard]] inline std::string CsvEncode(int v) { return std::to_string(v); }
[[nodiscard]] inline std::string CsvEncode(std::uint16_t v) { return std::to_string(v); }
[[nodiscard]] inline std::string CsvEncode(std::int64_t v) { return std::to_string(v); }
[[nodiscard]] inline std::string CsvEncode(std::uint64_t v) { return std::to_string(v); }
[[nodiscard]] inline std::string CsvEncode(collect::HomeId v) { return std::to_string(v.value); }
[[nodiscard]] inline std::string CsvEncode(TimePoint v) { return std::to_string(v.ms); }
[[nodiscard]] inline std::string CsvEncode(Duration v) { return std::to_string(v.ms); }
[[nodiscard]] inline std::string CsvEncode(Bytes v) { return std::to_string(v.count); }
[[nodiscard]] inline std::string CsvEncode(net::FlowId v) { return std::to_string(v.value); }

bool NeedsQuotes(std::string_view cell) {
  for (const char c : cell) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendQuoted(std::string& out, std::string_view cell) {
  out += '"';
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

/// CsvWriter's former cell, end_row and flush, for a chunk sink.
class Writer {
 public:
  explicit Writer(CsvWriter::Sink sink) : sink_(std::move(sink)) {
    buf_.reserve(2 * CsvWriter::kChunkBytes);
  }
  ~Writer() { flush(); }

  void cell(std::string_view value) {
    if (row_open_) buf_ += ',';
    row_open_ = true;
    if (NeedsQuotes(value)) {
      AppendQuoted(buf_, value);
    } else {
      buf_.append(value);
    }
  }
  void end_row() {
    buf_ += '\n';
    row_open_ = false;
    if (buf_.size() >= CsvWriter::kChunkBytes) flush();
  }
  void flush() {
    if (buf_.empty()) return;
    sink_(buf_);
    buf_.clear();
  }

 private:
  CsvWriter::Sink sink_;
  std::string buf_;
  bool row_open_{false};
};
}  // namespace string_cells

/// 2^16 wifi scans shaped like a fleet run's: 10k homes, a two-week
/// window, zero-heavy AP and client counts.
const std::vector<collect::WifiScanRecord>& WifiBenchRows() {
  static const auto* rows = [] {
    auto* v = new std::vector<collect::WifiScanRecord>;
    Rng rng(17);
    for (int i = 0; i < (1 << 16); ++i) {
      collect::WifiScanRecord scan;
      scan.home = collect::HomeId{static_cast<int>(rng.uniform_int(0, 9999))};
      scan.scanned = MakeTime({2012, 11, 1}) + Millis(rng.uniform_int(0, 14LL * 86'400'000));
      scan.band = rng.bernoulli(0.7) ? wireless::Band::k2_4GHz : wireless::Band::k5GHz;
      scan.channel = static_cast<int>(rng.uniform_int(1, 11));
      scan.visible_aps = rng.bernoulli(0.4) ? 0 : static_cast<int>(rng.uniform_int(1, 40));
      scan.associated_clients = rng.bernoulli(0.5) ? 0 : static_cast<int>(rng.uniform_int(1, 12));
      v->push_back(scan);
    }
    return v;
  }();
  return *rows;
}

/// wifi.csv rows through the reference path: a string per cell.
void WriteWifiRows(string_cells::Writer& csv, const std::vector<collect::WifiScanRecord>& rows) {
  const auto columns = collect::Schema<collect::WifiScanRecord>::Release();
  for (const collect::WifiScanRecord& r : rows) {
    std::apply([&](const auto&... col) { (csv.cell(string_cells::CsvEncode(r.*col.member)), ...); },
               columns);
    csv.end_row();
  }
}

/// wifi.csv rows through the exporter's column writes: integer cells in
/// place.
void WriteWifiRows(CsvWriter& csv, const std::vector<collect::WifiScanRecord>& rows) {
  const auto columns = collect::Schema<collect::WifiScanRecord>::Release();
  for (const collect::WifiScanRecord& r : rows) {
    std::apply([&](const auto&... col) { (col.write(csv, r), ...); }, columns);
    csv.end_row();
  }
}

/// One thread formatting wifi.csv rows into a chunk sink that only counts
/// bytes: /0 the reference path, /1 the exporter's. Both write the same
/// bytes; CI gates the median ratio of the two.
void BM_CsvWriteWifiRows(benchmark::State& state) {
  const auto& rows = WifiBenchRows();
  static const bool same_bytes = [&rows] {
    std::string reference, in_place;
    {
      string_cells::Writer csv([&](std::string_view b) { reference.append(b); });
      WriteWifiRows(csv, rows);
    }
    {
      CsvWriter csv([&](std::string_view b) { in_place.append(b); });
      WriteWifiRows(csv, rows);
    }
    return reference == in_place;
  }();
  if (!same_bytes) state.SkipWithError("the two paths wrote different bytes");
  std::size_t bytes = 0;
  const CsvWriter::Sink count = [&bytes](std::string_view chunk) { bytes += chunk.size(); };
  for (auto _ : state) {
    if (state.range(0) == 0) {
      string_cells::Writer csv(count);
      WriteWifiRows(csv, rows);
    } else {
      CsvWriter csv(count);
      WriteWifiRows(csv, rows);
    }
  }
  benchmark::DoNotOptimize(bytes);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_CsvWriteWifiRows)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --- columnar snapshot substrate (DESIGN §14) -------------------------------

/// A v3 columnar snapshot of RecordBenchRepo(), written once per process.
const std::string& RecordBenchColumnDir() {
  static const std::string* dir = [] {
    auto* d = new std::string(
        (std::filesystem::temp_directory_path() /
         ("bsmk-bench-colsnap-" + std::to_string(::getpid())))
            .string());
    std::filesystem::remove_all(*d);
    std::string error;
    if (!collect::SaveColumnSnapshot(RecordBenchRepo(), *d, &error)) {
      std::fprintf(stderr, "bench: SaveColumnSnapshot failed: %s\n", error.c_str());
      std::abort();
    }
    return d;
  }();
  return *dir;
}

/// Stream one kind (10k UptimeRecord rows) out of an already-open columnar
/// snapshot — the mmap + per-column decode cost with no file-open overhead.
void BM_SnapshotScanColumnar(benchmark::State& state) {
  auto repo = collect::OpenColumnSnapshot(RecordBenchColumnDir(), nullptr);
  if (!repo) state.SkipWithError("OpenColumnSnapshot failed");
  for (auto _ : state) {
    double hours = 0;
    repo->for_each_row<collect::UptimeRecord>(
        [&](const collect::UptimeRecord& u) { hours += u.uptime.hours(); });
    benchmark::DoNotOptimize(hours);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SnapshotScanColumnar);

/// The same scan masked to the one field it reads: only the uptime column
/// is checked and decoded, the projection every fleet feeder takes.
void BM_SnapshotScanColumnarProjected(benchmark::State& state) {
  auto repo = collect::OpenColumnSnapshot(RecordBenchColumnDir(), nullptr);
  if (!repo) state.SkipWithError("OpenColumnSnapshot failed");
  for (auto _ : state) {
    double hours = 0;
    repo->for_each_row<collect::UptimeRecord>(
        [&](const collect::UptimeRecord& u) { hours += u.uptime.hours(); },
        collect::FieldsOf<&collect::UptimeRecord::uptime>);
    benchmark::DoNotOptimize(hours);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SnapshotScanColumnarProjected);

/// The same scan over the resident row store, for the decode-overhead ratio.
void BM_SnapshotScanRowStore(benchmark::State& state) {
  const auto& repo = RecordBenchRepo();
  for (auto _ : state) {
    double hours = 0;
    repo.for_each_row<collect::UptimeRecord>(
        [&](const collect::UptimeRecord& u) { hours += u.uptime.hours(); });
    benchmark::DoNotOptimize(hours);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SnapshotScanRowStore);

/// Cold-start analysis from a v3 columnar snapshot: open the directory
/// (meta only — column files map lazily per kind) and run the full fleet
/// summary. The analyze CLI's `analyze <snapshot-dir>` path; CI holds it at
/// >= 3x faster than BM_CsvImportAllDatasets, which only loads the same
/// corpus from the other input `analyze` reads, a CSV release.
void BM_AnalyzeFromSnapshot(benchmark::State& state) {
  const auto& dir = RecordBenchColumnDir();
  for (auto _ : state) {
    auto repo = collect::OpenColumnSnapshot(dir, nullptr);
    if (!repo) state.SkipWithError("OpenColumnSnapshot failed");
    auto summary = analysis::SummarizeFleet(*repo, 1);
    benchmark::DoNotOptimize(summary.rows);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(RecordBenchRepo().total_rows()));
}
BENCHMARK(BM_AnalyzeFromSnapshot)->Unit(benchmark::kMillisecond);

// --- crash safety: segment checksums and the verifying merge path -----------

/// CRC32C throughput over a section-sized buffer — the per-byte cost every
/// spilled section pays once on write and once per merge pass.
void BM_SegmentChecksum(benchmark::State& state) {
  std::string buf(1 << 20, '\0');
  Rng rng(11);
  for (char& c : buf) c = static_cast<char>(rng.uniform_int(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Crc32c(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(buf.size()));
  state.SetLabel(core::Crc32cHardwareActive() ? "hw" : "sw");
}
BENCHMARK(BM_SegmentChecksum);

/// The portable fallback, for comparison on hardware-CRC machines.
void BM_SegmentChecksumSoftware(benchmark::State& state) {
  std::string buf(1 << 20, '\0');
  Rng rng(11);
  for (char& c : buf) c = static_cast<char>(rng.uniform_int(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Crc32cSoftware(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_SegmentChecksumSoftware);

/// A small spill-backed repository whose sections the verify benchmark
/// re-merges; built once, so the bench times the read path only.
const collect::DataRepository& SpilledBenchRepo() {
  using namespace collect;
  static const DataRepository* repo = [] {
    const auto dir = std::filesystem::temp_directory_path() /
                     ("bsmk-bench-spill-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    const Interval all{TimePoint{0}, TimePoint{1'000'000'000}};
    const DatasetWindows w{all, all, all, all, all, all};
    auto* r = new DataRepository(w);
    SpillConfig cfg;
    cfg.dir = dir.string();
    cfg.budget_bytes = 64 << 10;  // force many sections per kind
    cfg.workers = 2;
    r->enable_spill(cfg);
    Rng rng(13);
    constexpr int kShards = 8;
    for (int shard = 0; shard < kShards; ++shard) {
      IngestBatch batch = r->make_batch();
      batch.attach_spill(r->spill(), static_cast<std::uint32_t>(shard),
                         static_cast<std::size_t>(shard % 2));
      for (int i = 0; i < 4000; ++i) {
        ThroughputMinute tm;
        tm.home = HomeId{shard * 4 + i % 4};
        tm.minute_start = TimePoint{rng.uniform_int(0, 500'000'000)};
        tm.bytes_down = Bytes{rng.uniform_int(0, 100'000'000)};
        tm.peak_down_bps = rng.uniform(0.0, 2e7);
        batch.add_throughput_minute(tm);
      }
      r->commit(std::move(batch));
    }
    r->finalize_deterministic_order();
    return r;
  }();
  return *repo;
}

/// Stream a spilled data set through the k-way merge with CRC verification
/// on every section — the exact read path a resumed fleet run takes.
void BM_SectionVerify(benchmark::State& state) {
  const auto& repo = SpilledBenchRepo();
  for (auto _ : state) {
    std::size_t rows = 0;
    repo.for_each_row<collect::ThroughputMinute>(
        [&](const collect::ThroughputMinute&) { ++rows; });
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(repo.total_rows()));
}
BENCHMARK(BM_SectionVerify)->Unit(benchmark::kMillisecond);

/// 400 wifi sections of 1000 rows each, one per shard, whose scans
/// interleave over one window: the merge fan-in of a 10k-home fleet run's
/// wifi kind, at a fortieth of its rows.
const collect::DataRepository& MergeBenchRepo() {
  using namespace collect;
  static const DataRepository* repo = [] {
    const auto dir = std::filesystem::temp_directory_path() /
                     ("bsmk-bench-merge-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    const Interval all{TimePoint{0}, TimePoint{1'000'000'000}};
    auto* r = new DataRepository(DatasetWindows{all, all, all, all, all, all});
    SpillConfig cfg;
    cfg.dir = dir.string();
    cfg.budget_bytes = 256 << 20;  // no flush before a shard commits
    cfg.workers = 1;
    r->enable_spill(cfg);
    Rng rng(19);
    constexpr int kSections = 400;
    for (int shard = 0; shard < kSections; ++shard) {
      IngestBatch batch = r->make_batch();
      batch.attach_spill(r->spill(), static_cast<std::uint32_t>(shard), 0);
      for (int i = 0; i < 1000; ++i) {
        WifiScanRecord scan;
        scan.home = HomeId{shard * 4 + i % 4};
        scan.scanned = TimePoint{rng.uniform_int(0, 999'999'999)};
        scan.channel = static_cast<int>(rng.uniform_int(1, 11));
        scan.visible_aps = static_cast<int>(rng.uniform_int(0, 40));
        batch.add_wifi_scan(scan);
      }
      r->commit(std::move(batch));
    }
    r->finalize_deterministic_order();
    return r;
  }();
  return *repo;
}

/// The one-level merge of MergeBenchRepo()'s 400 sections, read the way the
/// finish pass reads a kind: RowReader batches, every section checked.
void BM_SpillMerge400(benchmark::State& state) {
  const auto& repo = MergeBenchRepo();
  for (auto _ : state) {
    collect::RowReader<collect::WifiScanRecord> reader(repo);
    std::vector<collect::WifiScanRecord> buffer;
    std::size_t rows = 0;
    for (std::span<const collect::WifiScanRecord> batch; !(batch = reader.read(buffer)).empty();) {
      rows += batch.size();
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(repo.total_rows()));
}
BENCHMARK(BM_SpillMerge400)->Unit(benchmark::kMillisecond);

void BM_MacAnonymize(benchmark::State& state) {
  const auto mac = net::MacAddress::FromParts(0x001EC2, 0x123456);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mac.anonymized(0x5EC));
  }
}
BENCHMARK(BM_MacAnonymize);

// Console output as usual, while collecting every per-iteration run for the
// machine-readable BENCH_micro.json artifact.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    std::int64_t iterations{0};
    double real_time{0.0};
    double cpu_time{0.0};
    std::string time_unit;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const auto& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      rows_.push_back(Row{run.benchmark_name(),
                          static_cast<std::int64_t>(run.iterations),
                          run.GetAdjustedRealTime(), run.GetAdjustedCPUTime(),
                          benchmark::GetTimeUnitString(run.time_unit)});
    }
  }

  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

int WriteJson(const std::string& path, const std::vector<CollectingReporter::Row>& rows) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return 1;
  }
  obs::JsonWriter json(file);
  json.begin_object();
  json.kv("schema", "bismark-bench/v1");
  json.kv("bench", "micro");
  json.key("benchmarks");
  json.begin_array();
  for (const auto& row : rows) {
    json.begin_object();
    json.kv("name", row.name);
    json.kv("iterations", row.iterations);
    json.kv("real_time", row.real_time);
    json.kv("cpu_time", row.cpu_time);
    json.kv("time_unit", row.time_unit);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::printf("wrote %zu benchmark results to %s\n", rows.size(), path.c_str());
  return 0;
}

}  // namespace
}  // namespace bismark

int main(int argc, char** argv) {
  const std::string json_path = bismark::bench::TakeJsonFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bismark::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) return bismark::WriteJson(json_path, reporter.rows());
  return 0;
}
