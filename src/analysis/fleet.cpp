#include "analysis/fleet.h"

#include <algorithm>
#include <functional>
#include <iomanip>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

#include "collect/binio.h"
#include "collect/column_snapshot.h"
#include "core/thread_pool.h"

namespace bismark::analysis {

namespace {

/// Per-home scalar state for the per-home distributions. Indexed by home
/// id, which the deployment mints densely from the roster index.
/// covered_ms holds exact integer millisecond sums (every addend is an
/// int64 and the totals stay far below 2^53), so accumulation order cannot
/// change the value — that is what lets the parallel path merge per-stripe
/// partials without a floating-point ordering hazard.
struct HomeAgg {
  double covered_ms{0.0};
  std::uint32_t heartbeat_runs{0};
  int max_unique_devices{-1};
};

/// country_code pointers indexed by dense home id (nullptr for gaps).
std::vector<const std::string*> CountryByHomeId(const collect::DataRepository& repo,
                                                int max_id) {
  std::vector<const std::string*> country(static_cast<std::size_t>(max_id + 1), nullptr);
  for (const collect::HomeInfo& info : repo.homes()) {
    if (info.id.value >= 0 && info.id.value <= max_id) {
      country[static_cast<std::size_t>(info.id.value)] = &info.country_code;
    }
  }
  return country;
}

/// Pre-seed the per-country table with roster counts so a country shows up
/// (with empty sketches) even when none of its homes ran a probe.
void SeedCountries(const collect::DataRepository& repo, FleetSummary* out) {
  for (const collect::HomeInfo& info : repo.homes()) {
    ++out->capacity_by_country[info.country_code].homes;
  }
}

/// Fold `from` into `into` deterministically: the first non-empty partial
/// is adopted wholesale (QuantileSketch::merge sums the eps bounds, so
/// merging into a default-constructed sketch would inflate the error
/// budget of single-stripe kinds for nothing).
void FoldSketch(QuantileSketch* into, QuantileSketch&& from) {
  if (from.empty()) return;
  if (into->empty()) {
    *into = std::move(from);
  } else {
    into->merge(from);
  }
}

/// The per-home distributions (Figs 3-4, 7, 10), from per-home totals
/// indexed by dense home id.
void AddPerHomeSamples(const collect::DataRepository& repo,
                       const std::vector<double>& covered_ms,
                       const std::vector<std::uint32_t>& heartbeat_runs,
                       const std::vector<int>& max_unique_devices, FleetSummary* out) {
  const Interval hb = repo.windows().heartbeats;
  const double window_ms = static_cast<double>((hb.end - hb.start).ms);
  const double window_days = window_ms / (24.0 * 3600.0 * 1000.0);
  for (const collect::HomeInfo& info : repo.homes()) {
    const auto i = static_cast<std::size_t>(info.id.value);
    if (info.reports_uptime && window_ms > 0.0) {
      out->availability_fraction.add(std::min(1.0, covered_ms[i] / window_ms));
      if (heartbeat_runs[i] > 0 && window_days > 0.0) {
        out->downtimes_per_day.add(static_cast<double>(heartbeat_runs[i] - 1) / window_days);
      }
    }
    if (info.reports_devices && max_unique_devices[i] >= 0) {
      out->unique_devices.add(static_cast<double>(max_unique_devices[i]));
    }
  }
}

}  // namespace

FleetSummarizer::FleetSummarizer(collect::FinishPass& pass) : repo_(pass.repository()) {
  out_.homes = repo_.homes().size();
  out_.rows = repo_.total_rows();
  for (const collect::HomeInfo& info : repo_.homes()) max_id_ = std::max(max_id_, info.id.value);
  const auto homes = static_cast<std::size_t>(max_id_ + 1);
  covered_ms_.assign(homes, 0.0);
  heartbeat_runs_.assign(homes, 0);
  max_unique_devices_.assign(homes, -1);
  country_ = CountryByHomeId(repo_, max_id_);
  SeedCountries(repo_, &out_);

  // Rows of homes outside the roster are skipped, as in the parallel path.
  const int max_id = max_id_;
  const auto known = [max_id](collect::HomeId id) { return id.value >= 0 && id.value <= max_id; };
  pass.add<collect::HeartbeatRun>([this, known](std::span<const collect::HeartbeatRun> rows) {
    for (const collect::HeartbeatRun& run : rows) {
      if (!known(run.home)) continue;
      const auto i = static_cast<std::size_t>(run.home.value);
      covered_ms_[i] += static_cast<double>((run.end - run.start).ms);
      ++heartbeat_runs_[i];
    }
  });
  pass.add<collect::DeviceCountRecord>(
      [this, known](std::span<const collect::DeviceCountRecord> rows) {
        for (const collect::DeviceCountRecord& rec : rows) {
          if (!known(rec.home)) continue;
          const auto i = static_cast<std::size_t>(rec.home.value);
          max_unique_devices_[i] = std::max(max_unique_devices_[i], rec.unique_total);
        }
      });
  pass.add<collect::CapacityRecord>([this, known](std::span<const collect::CapacityRecord> rows) {
    for (const collect::CapacityRecord& rec : rows) {
      out_.capacity_down_mbps.add(rec.downstream.mbps());
      out_.capacity_up_mbps.add(rec.upstream.mbps());
      if (!known(rec.home)) continue;
      const std::string* code = country_[static_cast<std::size_t>(rec.home.value)];
      if (code == nullptr) continue;
      CountryCapacity& cc = out_.capacity_by_country[*code];
      cc.down_mbps.add(rec.downstream.mbps());
      cc.up_mbps.add(rec.upstream.mbps());
    }
  });
  // The two wifi sketches read the largest kind: one consumer each.
  pass.add<collect::WifiScanRecord>([this](std::span<const collect::WifiScanRecord> rows) {
    for (const collect::WifiScanRecord& rec : rows) {
      out_.visible_aps.add(static_cast<double>(rec.visible_aps));
    }
  });
  pass.add<collect::WifiScanRecord>([this](std::span<const collect::WifiScanRecord> rows) {
    for (const collect::WifiScanRecord& rec : rows) {
      out_.associated_clients.add(static_cast<double>(rec.associated_clients));
    }
  });
  pass.add<collect::ThroughputMinute>([this](std::span<const collect::ThroughputMinute> rows) {
    for (const collect::ThroughputMinute& rec : rows) {
      out_.throughput_down_mbps.add(rec.peak_down_bps / 1e6);
    }
  });
  pass.add<collect::TrafficFlowRecord>([this](std::span<const collect::TrafficFlowRecord> rows) {
    for (const collect::TrafficFlowRecord& rec : rows) out_.flow_kbytes.add(rec.total_bytes().kb());
  });
}

FleetSummary FleetSummarizer::take() {
  AddPerHomeSamples(repo_, covered_ms_, heartbeat_runs_, max_unique_devices_, &out_);
  return std::move(out_);
}

FleetSummary SummarizeFleet(const collect::DataRepository& repo) {
  collect::FinishPass pass(repo, 1);
  FleetSummarizer summarizer(pass);
  pass.run();
  return summarizer.take();
}

namespace {

/// Per-stripe partial for the sketch-per-row kinds.
struct SketchPartial {
  QuantileSketch a;
  QuantileSketch b;
  std::map<std::string, CountryCapacity> by_country;  // capacity only
};

}  // namespace

FleetSummary SummarizeFleet(const collect::DataRepository& repo, std::size_t workers) {
  const collect::ColumnSnapshot* snap = repo.columns();
  if (snap == nullptr) return SummarizeFleet(repo);

  FleetSummary out;
  out.homes = repo.homes().size();
  out.rows = repo.total_rows();

  int max_id = -1;
  for (const collect::HomeInfo& info : repo.homes()) {
    max_id = std::max(max_id, info.id.value);
  }
  const auto country = CountryByHomeId(repo, max_id);
  SeedCountries(repo, &out);

  // One task per (kind, stripe): every task owns its partial slot, so the
  // scan itself is embarrassingly parallel. Determinism comes from the
  // merge below, which folds partials in stripe index order — a property
  // of the snapshot, not of how many threads scanned it.
  std::vector<std::function<void()>> tasks;

  const std::size_t hb_n = snap->stripes_of_kind(collect::kRecordIndexOf<collect::HeartbeatRun>);
  std::vector<std::vector<HomeAgg>> hb_parts(hb_n);
  for (std::size_t s = 0; s < hb_n; ++s) {
    tasks.emplace_back([&, s] {
      auto& agg = hb_parts[s];
      agg.assign(static_cast<std::size_t>(max_id + 1), HomeAgg{});
      snap->for_each_row_in_stripe<collect::HeartbeatRun>(
          s, [&](const collect::HeartbeatRun& run) {
            if (run.home.value < 0 || run.home.value > max_id) return;
            HomeAgg& a = agg[static_cast<std::size_t>(run.home.value)];
            a.covered_ms += static_cast<double>((run.end - run.start).ms);
            ++a.heartbeat_runs;
          });
    });
  }

  const std::size_t dev_n =
      snap->stripes_of_kind(collect::kRecordIndexOf<collect::DeviceCountRecord>);
  std::vector<std::vector<HomeAgg>> dev_parts(dev_n);
  for (std::size_t s = 0; s < dev_n; ++s) {
    tasks.emplace_back([&, s] {
      auto& agg = dev_parts[s];
      agg.assign(static_cast<std::size_t>(max_id + 1), HomeAgg{});
      snap->for_each_row_in_stripe<collect::DeviceCountRecord>(
          s, [&](const collect::DeviceCountRecord& rec) {
            if (rec.home.value < 0 || rec.home.value > max_id) return;
            HomeAgg& a = agg[static_cast<std::size_t>(rec.home.value)];
            a.max_unique_devices = std::max(a.max_unique_devices, rec.unique_total);
          });
    });
  }

  const std::size_t cap_n =
      snap->stripes_of_kind(collect::kRecordIndexOf<collect::CapacityRecord>);
  std::vector<SketchPartial> cap_parts(cap_n);
  for (std::size_t s = 0; s < cap_n; ++s) {
    tasks.emplace_back([&, s] {
      SketchPartial& p = cap_parts[s];
      snap->for_each_row_in_stripe<collect::CapacityRecord>(
          s, [&](const collect::CapacityRecord& rec) {
            p.a.add(rec.downstream.mbps());
            p.b.add(rec.upstream.mbps());
            if (rec.home.value < 0 || rec.home.value > max_id) return;
            if (const std::string* code = country[static_cast<std::size_t>(rec.home.value)]) {
              CountryCapacity& cc = p.by_country[*code];
              cc.down_mbps.add(rec.downstream.mbps());
              cc.up_mbps.add(rec.upstream.mbps());
            }
          });
    });
  }

  const std::size_t wifi_n =
      snap->stripes_of_kind(collect::kRecordIndexOf<collect::WifiScanRecord>);
  std::vector<SketchPartial> wifi_parts(wifi_n);
  for (std::size_t s = 0; s < wifi_n; ++s) {
    tasks.emplace_back([&, s] {
      SketchPartial& p = wifi_parts[s];
      snap->for_each_row_in_stripe<collect::WifiScanRecord>(
          s, [&](const collect::WifiScanRecord& rec) {
            p.a.add(static_cast<double>(rec.visible_aps));
            p.b.add(static_cast<double>(rec.associated_clients));
          });
    });
  }

  const std::size_t tp_n =
      snap->stripes_of_kind(collect::kRecordIndexOf<collect::ThroughputMinute>);
  std::vector<SketchPartial> tp_parts(tp_n);
  for (std::size_t s = 0; s < tp_n; ++s) {
    tasks.emplace_back([&, s] {
      SketchPartial& p = tp_parts[s];
      snap->for_each_row_in_stripe<collect::ThroughputMinute>(
          s, [&](const collect::ThroughputMinute& rec) {
            p.a.add(rec.peak_down_bps / 1e6);
          });
    });
  }

  const std::size_t flow_n =
      snap->stripes_of_kind(collect::kRecordIndexOf<collect::TrafficFlowRecord>);
  std::vector<SketchPartial> flow_parts(flow_n);
  for (std::size_t s = 0; s < flow_n; ++s) {
    tasks.emplace_back([&, s] {
      SketchPartial& p = flow_parts[s];
      snap->for_each_row_in_stripe<collect::TrafficFlowRecord>(
          s, [&](const collect::TrafficFlowRecord& rec) {
            p.a.add(rec.total_bytes().kb());
          });
    });
  }

  ThreadPool pool(static_cast<int>(workers));
  pool.parallel_for(tasks.size(), [&](std::size_t i, int) { tasks[i](); });

  // Stripe-order merge. HomeAgg folds are exact-integer sums and maxes
  // (order-free); the sketch folds are order-sensitive, hence the fixed
  // iteration.
  const auto homes = static_cast<std::size_t>(max_id + 1);
  std::vector<double> covered_ms(homes, 0.0);
  std::vector<std::uint32_t> heartbeat_runs(homes, 0);
  std::vector<int> max_unique_devices(homes, -1);
  for (const auto& part : hb_parts) {
    for (std::size_t i = 0; i < homes; ++i) {
      covered_ms[i] += part[i].covered_ms;
      heartbeat_runs[i] += part[i].heartbeat_runs;
    }
  }
  for (const auto& part : dev_parts) {
    for (std::size_t i = 0; i < homes; ++i) {
      max_unique_devices[i] = std::max(max_unique_devices[i], part[i].max_unique_devices);
    }
  }
  for (SketchPartial& p : cap_parts) {
    FoldSketch(&out.capacity_down_mbps, std::move(p.a));
    FoldSketch(&out.capacity_up_mbps, std::move(p.b));
    for (auto& [code, cc] : p.by_country) {
      CountryCapacity& into = out.capacity_by_country[code];
      FoldSketch(&into.down_mbps, std::move(cc.down_mbps));
      FoldSketch(&into.up_mbps, std::move(cc.up_mbps));
    }
  }
  for (SketchPartial& p : wifi_parts) {
    FoldSketch(&out.visible_aps, std::move(p.a));
    FoldSketch(&out.associated_clients, std::move(p.b));
  }
  for (SketchPartial& p : tp_parts) FoldSketch(&out.throughput_down_mbps, std::move(p.a));
  for (SketchPartial& p : flow_parts) FoldSketch(&out.flow_kbytes, std::move(p.a));

  AddPerHomeSamples(repo, covered_ms, heartbeat_runs, max_unique_devices, &out);
  return out;
}

void WriteFleetSummary(const FleetSummary& summary, std::ostream& out) {
  out << "Fleet summary: " << summary.homes << " homes, " << summary.rows
      << " rows (streaming sketches, eps "
      << summary.availability_fraction.eps() << ")\n";
  out << "  " << std::left << std::setw(26) << "distribution" << std::right
      << std::setw(9) << "samples";
  for (const char* col : {"p10", "p50", "p90", "p99", "max"}) {
    out << ' ' << std::setw(10) << col;
  }
  out << '\n';
  const auto row = [&out](const char* name, const QuantileSketch& s) {
    out << "  " << std::left << std::setw(26) << name << std::right
        << std::setw(9) << s.count() << std::fixed << std::setprecision(2);
    if (s.empty()) {
      for (int i = 0; i < 5; ++i) out << ' ' << std::setw(10) << "-";
    } else {
      for (const double v : {s.quantile(0.10), s.quantile(0.50), s.quantile(0.90),
                             s.quantile(0.99), s.max()}) {
        out << ' ' << std::setw(10) << v;
      }
    }
    out.unsetf(std::ios::fixed);
    out << std::setprecision(6) << '\n';
  };
  row("availability fraction", summary.availability_fraction);
  row("downtimes / day", summary.downtimes_per_day);
  row("unique devices", summary.unique_devices);
  row("capacity down (Mbps)", summary.capacity_down_mbps);
  row("capacity up (Mbps)", summary.capacity_up_mbps);
  row("visible APs / scan", summary.visible_aps);
  row("assoc clients / scan", summary.associated_clients);
  row("peak minute down (Mbps)", summary.throughput_down_mbps);
  row("flow size (KB)", summary.flow_kbytes);

  if (!summary.capacity_by_country.empty()) {
    out << "  capacity by country:\n";
    out << "  " << std::left << std::setw(8) << "code" << std::right << std::setw(8)
        << "homes" << std::setw(9) << "probes";
    for (const char* col : {"down p50", "down p90", "up p50", "up p90"}) {
      out << ' ' << std::setw(10) << col;
    }
    out << '\n';
    for (const auto& [code, cc] : summary.capacity_by_country) {
      out << "  " << std::left << std::setw(8) << code << std::right << std::setw(8)
          << cc.homes << std::setw(9) << cc.down_mbps.count() << std::fixed
          << std::setprecision(2);
      if (cc.down_mbps.empty()) {
        for (int i = 0; i < 4; ++i) out << ' ' << std::setw(10) << "-";
      } else {
        for (const double v :
             {cc.down_mbps.quantile(0.50), cc.down_mbps.quantile(0.90),
              cc.up_mbps.quantile(0.50), cc.up_mbps.quantile(0.90)}) {
          out << ' ' << std::setw(10) << v;
        }
      }
      out.unsetf(std::ios::fixed);
      out << std::setprecision(6) << '\n';
    }
  }
}

namespace {

// Version 2 carries the per-country capacity table. Any other magic fails
// closed, so a checkpoint from an older build is recomputed, not loaded.
constexpr char kSummaryMagic[4] = {'F', 'L', 'S', '2'};

/// The nine sketches in one fixed order, shared by both codec directions so
/// they cannot drift.
template <typename S, typename Fn>
void ForEachSketch(S& summary, Fn&& fn) {
  fn(summary.availability_fraction);
  fn(summary.downtimes_per_day);
  fn(summary.unique_devices);
  fn(summary.capacity_down_mbps);
  fn(summary.capacity_up_mbps);
  fn(summary.visible_aps);
  fn(summary.associated_clients);
  fn(summary.throughput_down_mbps);
  fn(summary.flow_kbytes);
}

}  // namespace

std::string SerializeFleetSummary(const FleetSummary& summary) {
  collect::BinWriter w;
  w.raw(kSummaryMagic, sizeof(kSummaryMagic));
  w.u64(static_cast<std::uint64_t>(summary.homes));
  w.u64(summary.rows);
  ForEachSketch(summary, [&w](const QuantileSketch& s) { w.str(s.Serialize()); });
  w.u32(static_cast<std::uint32_t>(summary.capacity_by_country.size()));
  for (const auto& [code, cc] : summary.capacity_by_country) {
    w.str(code);
    w.u64(static_cast<std::uint64_t>(cc.homes));
    w.str(cc.down_mbps.Serialize());
    w.str(cc.up_mbps.Serialize());
  }
  return w.buffer();
}

bool DeserializeFleetSummary(const std::string& blob, FleetSummary* out,
                             std::string* error) {
  const auto fail = [error](const std::string& reason) {
    if (error) *error = "fleet summary: " + reason;
    return false;
  };
  collect::BinReader r(blob.data(), blob.size());
  char magic[sizeof(kSummaryMagic)] = {};
  for (auto& c : magic) c = static_cast<char>(r.u8());
  if (r.failed() || std::string_view(magic, sizeof(magic)) !=
                        std::string_view(kSummaryMagic, sizeof(kSummaryMagic))) {
    return fail("bad magic");
  }
  FleetSummary summary;
  summary.homes = static_cast<std::size_t>(r.u64());
  summary.rows = r.u64();
  bool ok = true;
  ForEachSketch(summary, [&](QuantileSketch& s) {
    if (!ok || r.failed()) {
      ok = false;
      return;
    }
    ok = QuantileSketch::Deserialize(r.str(), &s);
  });
  if (!ok || r.failed()) return fail("malformed sketch blob");
  const std::uint32_t countries = r.u32();
  if (r.failed()) return fail("malformed country table");
  for (std::uint32_t i = 0; i < countries && ok; ++i) {
    std::string code = r.str();
    CountryCapacity cc;
    cc.homes = static_cast<std::size_t>(r.u64());
    ok = !r.failed() && QuantileSketch::Deserialize(r.str(), &cc.down_mbps) &&
         QuantileSketch::Deserialize(r.str(), &cc.up_mbps);
    if (ok) summary.capacity_by_country.emplace(std::move(code), std::move(cc));
  }
  if (!ok || r.failed()) return fail("malformed country table");
  if (!r.at_end()) return fail("trailing bytes");
  *out = std::move(summary);
  return true;
}

}  // namespace bismark::analysis
