#include "analysis/fleet.h"

#include <algorithm>
#include <array>
#include <functional>
#include <iomanip>
#include <mutex>
#include <optional>
#include <ostream>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "collect/binio.h"
#include "collect/column_snapshot.h"
#include "core/thread_pool.h"

namespace bismark::analysis {

namespace {

/// The roster facts the feeders read. The deployment mints home ids
/// densely from the roster index, so per-home state is an array indexed by
/// id; rows of homes outside the roster are skipped.
struct Roster {
  explicit Roster(const collect::DataRepository& repo) {
    for (const collect::HomeInfo& info : repo.homes()) max_id = std::max(max_id, info.id.value);
    country.assign(homes(), nullptr);
    for (const collect::HomeInfo& info : repo.homes()) {
      if (known(info.id)) country[static_cast<std::size_t>(info.id.value)] = &info.country_code;
    }
  }
  [[nodiscard]] std::size_t homes() const { return static_cast<std::size_t>(max_id + 1); }
  [[nodiscard]] bool known(collect::HomeId id) const {
    return id.value >= 0 && id.value <= max_id;
  }

  int max_id{-1};
  std::vector<const std::string*> country;  // by dense home id, nullptr for gaps
};

/// What the feeders accumulate over some rows: the summary's per-row
/// sketches, and the per-home totals behind the per-home distributions.
/// Only the heartbeat and device feeders keep per-home totals, sized on
/// their first batch. covered_ms holds exact integer millisecond sums
/// (every addend is an int64 and the totals stay far below 2^53), so
/// partials fold to the same value in any order.
struct FleetPartial {
  FleetSummary summary;
  std::vector<double> covered_ms;
  std::vector<std::uint32_t> heartbeat_runs;
  std::vector<int> max_unique_devices;
};

constexpr char kSummaryMagic[4] = {'F', 'L', 'S', '2'};

/// The nine sketches in one fixed order, shared by the partial fold and
/// SerializeFleetSummary.
constexpr QuantileSketch FleetSummary::*kSketches[] = {
    &FleetSummary::availability_fraction, &FleetSummary::downtimes_per_day,
    &FleetSummary::unique_devices,        &FleetSummary::capacity_down_mbps,
    &FleetSummary::capacity_up_mbps,      &FleetSummary::visible_aps,
    &FleetSummary::associated_clients,    &FleetSummary::throughput_down_mbps,
    &FleetSummary::flow_kbytes};

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

/// Fold partial `from` into the total `into`, whose per-home totals are
/// sized. Sketch folds are order-sensitive, so callers fold partials in a
/// fixed order (stripe index order); the per-home folds are exact.
void FoldPartial(FleetPartial& into, FleetPartial&& from) {
  for (const auto sketch : kSketches) {
    FoldSketch(&(into.summary.*sketch), std::move(from.summary.*sketch));
  }
  for (auto& [code, cc] : from.summary.capacity_by_country) {
    CountryCapacity& country = into.summary.capacity_by_country[code];
    FoldSketch(&country.down_mbps, std::move(cc.down_mbps));
    FoldSketch(&country.up_mbps, std::move(cc.up_mbps));
  }
  for (std::size_t i = 0; i < from.covered_ms.size(); ++i) {
    into.covered_ms[i] += from.covered_ms[i];
    into.heartbeat_runs[i] += from.heartbeat_runs[i];
  }
  for (std::size_t i = 0; i < from.max_unique_devices.size(); ++i) {
    into.max_unique_devices[i] = std::max(into.max_unique_devices[i], from.max_unique_devices[i]);
  }
}

// --- the feeders: each sketch group's row feeding, written once ---------------

void FeedHeartbeats(const Roster& roster, std::span<const collect::HeartbeatRun> rows,
                    FleetPartial& p) {
  p.covered_ms.resize(roster.homes(), 0.0);
  p.heartbeat_runs.resize(roster.homes(), 0);
  for (const collect::HeartbeatRun& run : rows) {
    if (!roster.known(run.home)) continue;
    const auto i = static_cast<std::size_t>(run.home.value);
    p.covered_ms[i] += static_cast<double>((run.end - run.start).ms);
    ++p.heartbeat_runs[i];
  }
}

void FeedDevices(const Roster& roster, std::span<const collect::DeviceCountRecord> rows,
                 FleetPartial& p) {
  p.max_unique_devices.resize(roster.homes(), -1);
  for (const collect::DeviceCountRecord& rec : rows) {
    if (!roster.known(rec.home)) continue;
    const auto i = static_cast<std::size_t>(rec.home.value);
    p.max_unique_devices[i] = std::max(p.max_unique_devices[i], rec.unique_total);
  }
}

void FeedCapacity(const Roster& roster, std::span<const collect::CapacityRecord> rows,
                  FleetPartial& p) {
  for (const collect::CapacityRecord& rec : rows) {
    p.summary.capacity_down_mbps.add(rec.downstream.mbps());
    p.summary.capacity_up_mbps.add(rec.upstream.mbps());
    if (!roster.known(rec.home)) continue;
    const std::string* code = roster.country[static_cast<std::size_t>(rec.home.value)];
    if (code == nullptr) continue;
    CountryCapacity& cc = p.summary.capacity_by_country[*code];
    cc.down_mbps.add(rec.downstream.mbps());
    cc.up_mbps.add(rec.upstream.mbps());
  }
}

/// Add one value per row to `sketch` in a single call, which the sketch
/// merges a compress period at a time.
template <typename T, typename Value>
void AddBatch(QuantileSketch& sketch, std::span<const T> rows, Value value) {
  std::vector<double> values;
  values.reserve(rows.size());
  for (const T& rec : rows) values.push_back(value(rec));
  sketch.add(values);
}

void FeedVisibleAps(const Roster&, std::span<const collect::WifiScanRecord> rows,
                    FleetPartial& p) {
  AddBatch(p.summary.visible_aps, rows,
           [](const auto& rec) { return static_cast<double>(rec.visible_aps); });
}

void FeedAssociatedClients(const Roster&, std::span<const collect::WifiScanRecord> rows,
                           FleetPartial& p) {
  AddBatch(p.summary.associated_clients, rows,
           [](const auto& rec) { return static_cast<double>(rec.associated_clients); });
}

void FeedThroughput(const Roster&, std::span<const collect::ThroughputMinute> rows,
                    FleetPartial& p) {
  AddBatch(p.summary.throughput_down_mbps, rows,
           [](const auto& rec) { return rec.peak_down_bps / 1e6; });
}

void FeedFlows(const Roster&, std::span<const collect::TrafficFlowRecord> rows,
               FleetPartial& p) {
  AddBatch(p.summary.flow_kbytes, rows, [](const auto& rec) { return rec.total_bytes().kb(); });
}

/// One sketch group's feeder and the only fields of its kind it reads.
template <typename T>
struct Feeder {
  void (*feed)(const Roster&, std::span<const T>, FleetPartial&);
  collect::FieldMask<T> fields;
};

/// Call `visit` with every sketch group's Feeder. The two wifi sketches
/// read the largest kind, so they are two groups: the finish pass feeds
/// them concurrently.
template <typename Visit>
void ForEachFeeder(Visit&& visit) {
  using collect::FieldsOf;
  using HB = collect::HeartbeatRun;
  using DC = collect::DeviceCountRecord;
  using CR = collect::CapacityRecord;
  using WS = collect::WifiScanRecord;
  using TM = collect::ThroughputMinute;
  using TF = collect::TrafficFlowRecord;
  visit(Feeder{&FeedHeartbeats, FieldsOf<&HB::home, &HB::start, &HB::end>});
  visit(Feeder{&FeedDevices, FieldsOf<&DC::home, &DC::unique_total>});
  visit(Feeder{&FeedCapacity, FieldsOf<&CR::home, &CR::downstream, &CR::upstream>});
  visit(Feeder{&FeedVisibleAps, FieldsOf<&WS::visible_aps>});
  visit(Feeder{&FeedAssociatedClients, FieldsOf<&WS::associated_clients>});
  visit(Feeder{&FeedThroughput, FieldsOf<&TM::peak_down_bps>});
  visit(Feeder{&FeedFlows, FieldsOf<&TF::bytes_up, &TF::bytes_down>});
}

/// The partial every feeder's output ends up in: the summary's scalars,
/// sized per-home totals, and the roster's countries (with empty sketches,
/// so a country shows up even when none of its homes ran a probe).
FleetPartial EmptyTotal(const collect::DataRepository& repo, const Roster& roster) {
  FleetPartial total;
  total.summary.homes = repo.homes().size();
  total.summary.rows = repo.total_rows();
  for (const collect::HomeInfo& info : repo.homes()) {
    ++total.summary.capacity_by_country[info.country_code].homes;
  }
  total.covered_ms.assign(roster.homes(), 0.0);
  total.heartbeat_runs.assign(roster.homes(), 0);
  total.max_unique_devices.assign(roster.homes(), -1);
  return total;
}

/// Add the per-home distributions (Figs 3-4, 7, 10) from the per-home
/// totals and hand the summary over.
FleetSummary TakeSummary(const collect::DataRepository& repo, FleetPartial&& total) {
  FleetSummary& out = total.summary;
  const Interval hb = repo.windows().heartbeats;
  const double window_ms = static_cast<double>((hb.end - hb.start).ms);
  const double window_days = window_ms / (24.0 * 3600.0 * 1000.0);
  for (const collect::HomeInfo& info : repo.homes()) {
    const auto i = static_cast<std::size_t>(info.id.value);
    if (info.reports_uptime && window_ms > 0.0) {
      out.availability_fraction.add(std::min(1.0, total.covered_ms[i] / window_ms));
      if (total.heartbeat_runs[i] > 0 && window_days > 0.0) {
        out.downtimes_per_day.add(static_cast<double>(total.heartbeat_runs[i] - 1) / window_days);
      }
    }
    if (info.reports_devices && total.max_unique_devices[i] >= 0) {
      out.unique_devices.add(static_cast<double>(total.max_unique_devices[i]));
    }
  }
  return std::move(out);
}

}  // namespace

struct FleetSummarizer::State {
  explicit State(const collect::DataRepository& r)
      : repo(r), roster(r), total(EmptyTotal(r, roster)) {}
  const collect::DataRepository& repo;
  Roster roster;
  FleetPartial total;
};

FleetSummarizer::FleetSummarizer(collect::FinishPass& pass)
    : state_(std::make_unique<State>(pass.repository())) {
  // Each feeder is one consumer writing its own fields of the total, so
  // consumers never share mutable state. The pass's rows are whole, since
  // the exports and the snapshot writer share them.
  ForEachFeeder([&]<typename T>(Feeder<T> feeder) {
    pass.add<T>([state = state_.get(), feed = feeder.feed](std::span<const T> rows) {
      feed(state->roster, rows, state->total);
    });
  });
}

FleetSummarizer::~FleetSummarizer() = default;

FleetSummary FleetSummarizer::take() { return TakeSummary(state_->repo, std::move(state_->total)); }

FleetSummary SummarizeFleet(const collect::DataRepository& repo) {
  collect::FinishPass pass(repo, 1);
  FleetSummarizer summarizer(pass);
  pass.run();
  return summarizer.take();
}

FleetSummary SummarizeFleet(const collect::DataRepository& repo, std::size_t workers) {
  if (!repo.column_backed()) return SummarizeFleet(repo);
  const Roster roster(repo);

  // One task per (kind, stripe) runs every feeder of that kind over the
  // stripe into the task's own partial, so the scan is embarrassingly
  // parallel. It reads only the fields its feeders name, so it checks and
  // pages in only their column sections. Determinism comes from the fold,
  // which takes each kind's partials in stripe index order — a property of
  // the snapshot, not of how many threads scanned it. Kinds fold into
  // disjoint parts of the total, so they need no order among themselves.
  // A task folds its partial, and every later one of its kind that is
  // waiting, as soon as every lower stripe of its kind is folded: only the
  // partials of stripes that finish ahead of a lower one are held.
  struct KindFold {
    std::vector<std::optional<FleetPartial>> waiting;  // by stripe
    std::size_t next{0};                               // the lowest stripe not folded
  };
  FleetPartial total = EmptyTotal(repo, roster);
  std::array<KindFold, collect::kRecordKinds> folds;
  std::mutex fold_mu;  // guards `total` and `folds`
  std::vector<std::function<void()>> tasks;
  collect::ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    collect::FieldMask<T> fields;
    ForEachFeeder([&]<typename U>(Feeder<U> feeder) {
      if constexpr (std::is_same_v<U, T>) fields = fields | feeder.fields;
    });
    if (fields.empty()) return;
    KindFold& fold = folds[collect::kRecordIndexOf<T>];
    fold.waiting.resize(repo.columns()->stripes_of_kind(collect::kRecordIndexOf<T>));
    for (std::size_t s = 0; s < fold.waiting.size(); ++s) {
      tasks.emplace_back([&repo, &roster, &total, &fold, &fold_mu, s, fields] {
        FleetPartial part;
        collect::RowReader<T> reader(repo, s, fields);
        std::vector<T> buffer;
        for (std::span<const T> rows; !(rows = reader.read(buffer)).empty();) {
          ForEachFeeder([&]<typename U>(Feeder<U> feeder) {
            if constexpr (std::is_same_v<U, T>) feeder.feed(roster, rows, part);
          });
        }
        const std::lock_guard<std::mutex> lock(fold_mu);
        fold.waiting[s] = std::move(part);
        for (; fold.next < fold.waiting.size() && fold.waiting[fold.next]; ++fold.next) {
          FoldPartial(total, std::move(*fold.waiting[fold.next]));
          fold.waiting[fold.next].reset();
        }
      });
    }
  });
  ThreadPool pool(PoolWorkers(workers, tasks.size()));
  pool.parallel_for(tasks.size(), [&](std::size_t i, int) { tasks[i](); });
  return TakeSummary(repo, std::move(total));
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

std::string SerializeFleetSummary(const FleetSummary& summary) {
  collect::BinWriter w;
  w.raw(kSummaryMagic, sizeof(kSummaryMagic));
  w.value_as<std::uint64_t>(summary.homes);
  w.value(summary.rows);
  for (const auto sketch : kSketches) w.str((summary.*sketch).Serialize());
  w.count(summary.capacity_by_country);
  for (const auto& [code, country] : summary.capacity_by_country) {
    w.value(code);
    w.value_as<std::uint64_t>(country.homes);
    w.str(country.down_mbps.Serialize());
    w.str(country.up_mbps.Serialize());
  }
  return w.buffer();
}

}  // namespace bismark::analysis
