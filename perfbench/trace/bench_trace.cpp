// bench_trace: the benchmark's traced run of one bismark_study invocation.
//
//   bench_trace --trace-out FILE --invocation ID [--probes] <bismark_study args>
//
// Replays the invocation in-process through the public functions of home,
// collect and analysis — the same calls, in the same order and with the
// same options, as CmdRun, CmdReport and CmdAnalyze in
// tools/bismark_study.cpp — with a span around each call. After the
// sequence it reads the counters that sim, traffic, bismark and net already
// expose (Deployment::metrics(), telemetry(), upload_stats(), the spill
// directory, SummarizeCgn). Spans stay in memory and are written to FILE,
// together with the counters, when the replay ends; perfbench/run.py turns
// them into the per-layer ladder.
//
// --probes adds two measurements after the sequence, under the invocation
// id "<ID>.probe" so they stay out of trace coverage:
//   probe.scan    a no-op for_each_row over every kind of a spilled or
//                 column-backed repository: the merge cost or the column-scan
//                 cost per row. Runs after the merge scratch size is read,
//                 because a merge pass itself appends scratch.
//   probe.verify  a fresh ColumnSnapshot::Open plus ensure_kind_open on
//                 every kind with rows (the frame and CRC verify cost).
//
// Only the options the benchmark's workloads use are accepted; any other
// option is a usage error, so the replay can never silently diverge from
// the CLI call it stands for.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cgn.h"
#include "analysis/diurnal.h"
#include "analysis/downtime.h"
#include "analysis/fleet.h"
#include "analysis/infrastructure.h"
#include "analysis/usage.h"
#include "analysis/utilization.h"
#include "collect/column_snapshot.h"
#include "collect/export.h"
#include "core/args.h"
#include "core/io.h"
#include "core/thread_pool.h"
#include "home/deployment.h"
#include "obs/json.h"

using namespace bismark;

namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::string invocation;
  double start_s{0.0};  // seconds since the tracer's origin
  double end_s{0.0};
  int parent{-1};  // index into the span list, -1 for a top-level span
};

/// In-memory span recorder. Nesting follows the call stack of span().
class Tracer {
 public:
  explicit Tracer(std::string invocation) : invocation_(std::move(invocation)) {}

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  /// The origin on the steady clock (CLOCK_MONOTONIC on Linux), so spans of
  /// separate replays can be placed on one time line.
  [[nodiscard]] double origin_s() const {
    return std::chrono::duration<double>(origin_.time_since_epoch()).count();
  }

  /// Run `fn` inside a span named `name` and return its result.
  template <typename Fn>
  decltype(auto) span(const char* name, Fn&& fn) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({name, invocation_, now(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(index);
    struct Close {
      Tracer* tracer;
      int index;
      ~Close() {
        tracer->spans_[static_cast<std::size_t>(index)].end_s = tracer->now();
        tracer->stack_.pop_back();
      }
    } close{this, index};
    return fn();
  }

  /// Record a span whose bounds were measured elsewhere (Deployment's
  /// telemetry phases), as a child of span `parent`.
  void add(std::string name, double start_s, double end_s, int parent) {
    spans_.push_back({std::move(name), invocation_, start_s, end_s, parent});
  }

  /// Index of the most recently opened span with this name (-1 if none).
  [[nodiscard]] int find(const std::string& name) const {
    for (int i = static_cast<int>(spans_.size()) - 1; i >= 0; --i) {
      if (spans_[static_cast<std::size_t>(i)].name == name) return i;
    }
    return -1;
  }

  void set_invocation(std::string invocation) { invocation_ = std::move(invocation); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::string invocation_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Counters read after the sequence, in emission order.
using Counters = std::vector<std::pair<std::string, double>>;

/// OptionsFrom() of tools/bismark_study.cpp for the options the workloads
/// use; every other DeploymentOptions field keeps the default that the CLI's
/// option defaults also resolve to.
home::DeploymentOptions OptionsFrom(const ArgParser& args) {
  home::DeploymentOptions options;
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 20131023));
  const auto weeks = args.get_int("weeks", 0);
  if (weeks > 0) {
    options.windows = collect::DatasetWindows::Compressed(MakeTime({2012, 10, 1}),
                                                          static_cast<int>(weeks));
  } else {
    options.windows = collect::DatasetWindows::Paper();
  }
  options.roster_scale = args.get_double("scale", 1.0);
  options.homes = static_cast<int>(args.get_int("homes", 0));
  options.memory_budget_bytes =
      static_cast<std::size_t>(args.get_int("memory-budget-mb", 0)) << 20;
  if (const auto dir = args.get("spill-dir")) options.spill_dir = *dir;
  options.workers = static_cast<int>(args.get_int("workers", 1));
  options.cgn = args.has("cgn");
  return options;
}

std::size_t ResolveWorkers(std::int64_t workers) {
  return workers > 0 ? static_cast<std::size_t>(workers)
                     : static_cast<std::size_t>(ThreadPool::HardwareWorkers());
}

/// Deployment::RunStudy, split into its two traced calls; the phases of
/// run() become child spans of home.run, laid end to end from the span's
/// start in the order run() executes them.
std::unique_ptr<home::Deployment> BuildAndRun(Tracer& tr,
                                              const home::DeploymentOptions& options) {
  auto study = std::make_unique<home::Deployment>(options);
  tr.span("home.build", [&] { study->build(); });
  tr.span("home.run", [&] { study->run(); });
  const int run_span = tr.find("home.run");
  const home::RunTelemetry& tel = study->telemetry();
  double t = tr.spans()[static_cast<std::size_t>(run_span)].start_s;
  for (const auto& [name, seconds] :
       {std::pair{"home.outage_prepass", tel.wall_outage_prepass_s},
        std::pair{"home.sharded_run", tel.wall_sharded_run_s},
        std::pair{"home.commit", tel.wall_commit_s}}) {
    tr.add(name, t, t + seconds, run_span);
    t += seconds;
  }
  return study;
}

void ReadStudyCounters(const home::Deployment& study, Counters& out) {
  const home::RunTelemetry& tel = study.telemetry();
  double busy_s = 0.0;
  for (const auto& w : tel.pool) busy_s += w.busy_s;
  out.emplace_back("telemetry.outage_prepass_s", tel.wall_outage_prepass_s);
  out.emplace_back("telemetry.sharded_run_s", tel.wall_sharded_run_s);
  out.emplace_back("telemetry.commit_s", tel.wall_commit_s);
  out.emplace_back("telemetry.total_s", tel.wall_total_s);
  out.emplace_back("telemetry.workers", tel.workers);
  out.emplace_back("telemetry.busy_s", busy_s);
  for (const auto& [name, value] : study.metrics().counters) {
    out.emplace_back("metrics." + name, static_cast<double>(value));
  }
  for (const auto& [name, value] : study.metrics().gauges) {
    out.emplace_back("metrics." + name, value);
  }
  const home::UploadStats& up = study.upload_stats();
  out.emplace_back("upload.records_spooled", static_cast<double>(up.records_spooled));
  out.emplace_back("upload.records_delivered", static_cast<double>(up.records_delivered));
  out.emplace_back("upload.batches_delivered", static_cast<double>(up.batches_delivered));
  out.emplace_back("upload.attempts", static_cast<double>(up.attempts));
  out.emplace_back("upload.retries", static_cast<double>(up.retries));
  if (collect::SpillDir* spill = study.repository().spill()) {
    out.emplace_back("spill.sections", static_cast<double>(spill->sections_written()));
    out.emplace_back("spill.bytes", static_cast<double>(spill->bytes_spilled()));
    out.emplace_back("spill.rows", static_cast<double>(spill->total_rows()));
    std::lock_guard<std::mutex> lock(spill->merge_mutex());
    out.emplace_back("spill.merge_scratch_bytes",
                     static_cast<double>(spill->scratch_log().bytes_written()));
  }
}

void ReadRowCounters(const collect::DataRepository& repo, Counters& out) {
  collect::ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    out.emplace_back(std::string("rows.") + collect::Schema<T>::kKindName,
                     static_cast<double>(repo.row_count<T>()));
  });
  out.emplace_back("rows.total", static_cast<double>(repo.total_rows()));
  out.emplace_back("repo.spilled", repo.spilling() ? 1.0 : 0.0);
  out.emplace_back("repo.columns", repo.column_backed() ? 1.0 : 0.0);
}

/// CmdRun: build, run, counts, then the optional CGN summary, fleet
/// summary, export and snapshot, in the CLI's order.
int ReplayRun(Tracer& tr, const ArgParser& args, Counters& out,
              std::unique_ptr<home::Deployment>* keep) {
  const home::DeploymentOptions options = OptionsFrom(args);
  auto study = BuildAndRun(tr, options);
  collect::DataRepository& repo = study->repository();
  tr.span("collect.counts", [&] { return repo.counts(); });
  if (options.cgn) {
    const auto cgn = tr.span("analysis.cgn", [&] { return analysis::SummarizeCgn(repo); });
    out.emplace_back("cgn.translations_out", static_cast<double>(cgn.translations_out));
    out.emplace_back("cgn.exhaustion_drops", static_cast<double>(cgn.exhaustion_drops));
  }
  if (options.memory_budget_bytes > 0) {
    const auto summary =
        tr.span("analysis.summarize_fleet", [&] { return analysis::SummarizeFleet(repo); });
    out.emplace_back("summary.rows", static_cast<double>(summary.rows));
    tr.span("collect.summary_checkpoint", [&] {
      study->save_fleet_summary_checkpoint(analysis::SerializeFleetSummary(summary));
    });
  }
  const std::size_t workers = ResolveWorkers(options.workers);
  if (const auto dir = args.get("export")) {
    const std::size_t rows = tr.span(
        "collect.export", [&] { return collect::ExportPublicDatasets(repo, *dir, workers); });
    out.emplace_back("export.rows", static_cast<double>(rows));
  }
  if (const auto dir = args.get("snapshot-out")) {
    std::string error;
    if (!tr.span("collect.snapshot_write",
                 [&] { return collect::SaveColumnSnapshot(repo, *dir, &error, workers); })) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  }
  ReadStudyCounters(*study, out);
  ReadRowCounters(repo, out);
  *keep = std::move(study);
  return 0;
}

/// CmdReport outside fleet mode: build, run, then the Section 4-6 calls,
/// grouped into one span per section.
int ReplayReport(Tracer& tr, const ArgParser& args, Counters& out,
                 std::unique_ptr<home::Deployment>* keep) {
  const home::DeploymentOptions options = OptionsFrom(args);
  if (options.memory_budget_bytes > 0) {
    std::fprintf(stderr, "error: bench_trace replays report without --memory-budget-mb only\n");
    return 2;
  }
  auto study = BuildAndRun(tr, options);
  const collect::DataRepository& repo = study->repository();
  double sink = 0.0;  // folds every result in, so no call is dead code

  tr.span("analysis.section4", [&] {
    const auto homes = tr.span("analysis.availability", [&] {
      return analysis::AnalyzeAvailability(repo, {Minutes(10), 25.0});
    });
    const auto summary = analysis::SummarizeRegions(homes);
    sink += summary.median_days_between_downtimes_developed +
            summary.median_duration_s_developing;
  });
  tr.span("analysis.section5", [&] {
    sink += tr.span("analysis.unique_devices",
                    [&] { return analysis::UniqueDevicesCdf(repo).median(); });
    sink += analysis::MeanUniqueDevices(repo);
    sink += analysis::UniqueDevicesPerBand(repo).band5.median();
    sink += analysis::NeighborAps(repo).developing.median();
    sink += analysis::AlwaysConnected(repo).developed.wired_fraction();
  });
  tr.span("analysis.section6", [&] {
    sink += analysis::WirelessDiurnalProfile(repo).weekday_peak();
    const auto saturation = analysis::LinkSaturation(repo);
    sink += static_cast<double>(analysis::OversaturatedUplinks(saturation).size());
    const auto devices = analysis::DeviceUsageShares(repo);
    sink += devices.share_by_rank.empty() ? 0.0 : devices.share_by_rank[0];
    sink += analysis::DomainUsageShares(repo).whitelisted_volume_share;
  });
  out.emplace_back("report.checksum", sink);
  ReadStudyCounters(*study, out);
  ReadRowCounters(repo, out);
  *keep = std::move(study);
  return 0;
}

/// CmdAnalyze on a columnar snapshot directory: open, availability, unique
/// devices, then the per-stripe parallel fleet summary.
int ReplayAnalyze(Tracer& tr, const ArgParser& args, Counters& out,
                  std::unique_ptr<collect::DataRepository>* keep) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "error: analyze needs a snapshot directory\n");
    return 2;
  }
  const std::string path = args.positional()[1];
  const std::size_t workers = ResolveWorkers(args.get_int("workers", 1));
  core::ResetIoReadStats();
  std::string error;
  auto repo = tr.span("collect.snapshot_open", [&]() -> std::unique_ptr<collect::DataRepository> {
    if (!collect::IsColumnSnapshotDir(path)) return nullptr;
    return collect::OpenColumnSnapshot(path, &error);
  });
  if (!repo) {
    std::fprintf(stderr, "error: %s is not a readable columnar snapshot: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  std::string printed;  // the CLI's summary lines, built as it builds them
  const std::size_t qualifying = tr.span("analysis.availability", [&] {
    const auto homes = analysis::AnalyzeAvailability(*repo, {Minutes(10), 25.0});
    Cdf downtimes;
    for (const auto& h : homes) downtimes.add(h.downtimes_per_day());
    printed += Summarize(downtimes);
    return homes.size();
  });
  tr.span("analysis.unique_devices",
          [&] { printed += Summarize(analysis::UniqueDevicesCdf(*repo)); });
  const auto summary = tr.span("analysis.summarize_columns",
                               [&] { return analysis::SummarizeFleet(*repo, workers); });
  out.emplace_back("analysis.qualifying_homes", static_cast<double>(qualifying));
  out.emplace_back("analysis.printed_bytes", static_cast<double>(printed.size()));
  out.emplace_back("summary.rows", static_cast<double>(summary.rows));
  out.emplace_back("io.bytes_mapped", static_cast<double>(core::CurrentIoReadStats().bytes_mapped));
  ReadRowCounters(*repo, out);
  *keep = std::move(repo);
  return 0;
}

void ProbeScan(Tracer& tr, const collect::DataRepository& repo, Counters& out) {
  std::uint64_t rows = 0;
  tr.span("probe.scan", [&] {
    collect::ForEachRecordType([&](auto tag) {
      using T = typename decltype(tag)::type;
      if (repo.row_count<T>() == 0) return;
      const std::string name = std::string("probe.scan.") + collect::Schema<T>::kKindName;
      tr.span(name.c_str(), [&] { repo.for_each_row<T>([&rows](const T&) { ++rows; }); });
    });
  });
  out.emplace_back("probe.scan_rows", static_cast<double>(rows));
}

bool ProbeVerify(Tracer& tr, const std::string& dir, Counters& out) {
  std::string error;
  const bool ok = tr.span("probe.verify", [&] {
    const auto snap = collect::ColumnSnapshot::Open(dir, &error);
    if (!snap) return false;
    for (std::size_t kind = 0; kind < collect::kRecordKinds; ++kind) {
      if (snap->rows_of_kind(kind) > 0) snap->ensure_kind_open(kind);
    }
    return true;
  });
  if (!ok) std::fprintf(stderr, "error: verify probe: %s\n", error.c_str());
  out.emplace_back("probe.verified", ok ? 1.0 : 0.0);
  return ok;
}

bool WriteTrace(const std::string& path, const Tracer& tr, const Counters& counters) {
  std::ofstream file(path, std::ios::binary);
  obs::JsonWriter json(file);
  json.begin_object();
  json.kv("origin_s", tr.origin_s());
  json.key("spans");
  json.begin_array();
  for (const Span& s : tr.spans()) {
    json.begin_object();
    json.kv("name", s.name);
    json.kv("invocation", s.invocation);
    json.kv("start_s", s.start_s);
    json.kv("end_s", s.end_s);
    json.kv("parent", s.parent);
    json.end_object();
  }
  json.end_array();
  json.key("counters");
  json.begin_object();
  for (const auto& [name, value] : counters) json.kv(name, value);
  json.end_object();
  json.end_object();
  file << "\n";
  return static_cast<bool>(file);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_trace: traced in-process replay of one bismark_study invocation");
  args.add_option("trace-out", "write spans and counters to this JSON file");
  args.add_option("invocation", "invocation id recorded on every span", "main");
  args.add_flag("probes", "after the sequence, run the scan and verify probes");
  args.add_option("seed", "deployment seed", "20131023");
  args.add_option("weeks", "compress the study to N weeks", "0");
  args.add_option("scale", "roster scale", "1.0");
  args.add_option("homes", "exact roster size");
  args.add_option("memory-budget-mb", "fleet mode spill budget", "0");
  args.add_option("spill-dir", "spill directory");
  args.add_option("workers", "worker threads", "1");
  args.add_option("export", "public CSV export directory");
  args.add_option("snapshot-out", "columnar snapshot directory");
  args.add_flag("cgn", "NAT444 tier");
  if (!args.parse(argc, argv) || args.positional().empty() || !args.get("trace-out")) {
    std::fprintf(stderr, "error: %s\n%s", args.error().c_str(),
                 args.help("bench_trace --trace-out FILE <run|report|analyze> ...").c_str());
    return 2;
  }
  const std::string invocation = args.get_or("invocation", "main");
  Tracer tr(invocation);
  Counters counters;
  const std::string& command = args.positional()[0];
  try {
    int rc = 2;
    // The replay's repository stays alive through the probes.
    std::unique_ptr<home::Deployment> study;
    std::unique_ptr<collect::DataRepository> opened;
    std::string snapshot_dir;
    if (command == "run") {
      rc = ReplayRun(tr, args, counters, &study);
      snapshot_dir = args.get_or("snapshot-out", "");
    } else if (command == "report") {
      rc = ReplayReport(tr, args, counters, &study);
    } else if (command == "analyze") {
      rc = ReplayAnalyze(tr, args, counters, &opened);
      if (args.positional().size() >= 2) snapshot_dir = args.positional()[1];
    } else {
      std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
    }
    if (rc != 0) return rc;
    if (args.has("probes")) {
      tr.set_invocation(invocation + ".probe");
      const collect::DataRepository& repo = study ? study->repository() : *opened;
      if (repo.spilling() || repo.column_backed()) ProbeScan(tr, repo, counters);
      if (!snapshot_dir.empty() && !ProbeVerify(tr, snapshot_dir, counters)) return 1;
      tr.set_invocation(invocation);
    }
    // The CLI pays for freeing the study when its command returns.
    if (study) tr.span("home.teardown", [&] { study.reset(); });
    if (opened) tr.span("collect.teardown", [&] { opened.reset(); });
    if (!WriteTrace(*args.get("trace-out"), tr, counters)) {
      std::fprintf(stderr, "error: cannot write %s\n", args.get("trace-out")->c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
