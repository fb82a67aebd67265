// bismark-study: the command-line front door to the reproduction.
//
//   bismark_study run      --seed 42 --weeks 8 [--no-traffic] [--export DIR]
//   bismark_study report   --seed 42 [--weeks N]     # paper-style digest
//   bismark_study analyze  <snapshot-dir|release-dir> [--workers N]
//   bismark_study --help
//
// `run` simulates a deployment and prints dataset volumes; `report` adds
// the Section 4-6 headline numbers; both write the same outputs (--export,
// --export-full, --snapshot-out, --pcap-out, --metrics-out, --run-report).
// `analyze` reads either a v3 snapshot directory written by
// `run --snapshot-out` or a CSV release directory written by `run --export`
// (or examples/world_deployment); it writes nothing and takes no option but
// --workers (--seed is accepted and unused).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "analysis/cgn.h"
#include "analysis/diurnal.h"
#include "analysis/downtime.h"
#include "analysis/fleet.h"
#include "analysis/infrastructure.h"
#include "analysis/usage.h"
#include "analysis/utilization.h"
#include "collect/column_snapshot.h"
#include "collect/export.h"
#include "collect/finish.h"
#include "collect/import.h"
#include "collect/manifest.h"
#include "core/args.h"
#include "core/io.h"
#include "core/table.h"
#include "core/thread_pool.h"
#include "home/deployment.h"
#include "home/resume.h"
#include "net/cgn.h"
#include "obs/metrics.h"
#include "obs/report.h"

using namespace bismark;

namespace {

/// Shared by `run` and `report`: write the Prometheus text exposition
/// (--metrics-out) and/or the JSON run report (--run-report) for a finished
/// study. --deterministic-report strips the report's wall-clock section so
/// the bytes depend only on (seed, fault seed, roster). The finish pass runs
/// after the deployment, so its time comes from the caller: it becomes the
/// report's `finish_pass` phase and is added to `total_s`.
int WriteObsOutputs(const home::Deployment& study, const ArgParser& args, const char* tool,
                    double finish_pass_s) {
  if (const auto path = args.get("metrics-out")) {
    std::ofstream out(*path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n", path->c_str());
      return 1;
    }
    obs::WritePrometheus(study.metrics(), out);
    std::printf("wrote metrics to %s\n", path->c_str());
  }
  if (const auto path = args.get("run-report")) {
    std::ofstream out(*path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n", path->c_str());
      return 1;
    }
    const bool volatile_section = !args.has("deterministic-report");
    obs::RunReport report = home::MakeRunReport(study, tool, volatile_section);
    report.phases.push_back({"finish_pass", finish_pass_s});
    report.wall_total_s += finish_pass_s;
    report.write_json(out);
    std::printf("wrote run report to %s%s\n", path->c_str(),
                volatile_section ? "" : " (deterministic section only)");
  }
  return 0;
}

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
  options.run_traffic = !args.has("no-traffic");
  options.roster_scale = args.get_double("scale", 1.0);
  options.homes = static_cast<int>(args.get_int("homes", 0));
  options.memory_budget_bytes =
      static_cast<std::size_t>(args.get_int("memory-budget-mb", 0)) << 20;
  if (const auto dir = args.get("spill-dir")) options.spill_dir = *dir;
  options.workers = static_cast<int>(args.get_int("workers", 1));
  // Fault injection (Section 3.3's visibility limitations, as knobs).
  options.collector_outages_per_month =
      args.get_double("collector-outages-per-month", 0.0);
  options.heartbeat.loss_prob =
      args.get_double("heartbeat-loss", options.heartbeat.loss_prob);
  options.upload_faults.upload_loss_prob = args.get_double("upload-loss", 0.0);
  options.upload_faults.ack_loss_prob = args.get_double("ack-loss", 0.0);
  options.upload.spool_capacity = static_cast<std::size_t>(args.get_int(
      "spool-capacity", static_cast<std::int64_t>(options.upload.spool_capacity)));
  options.fault_seed = static_cast<std::uint64_t>(args.get_int("fault-seed", 0));
  options.checkpoint_every = static_cast<std::uint64_t>(args.get_int("checkpoint-every", 0));
  // NAT444 tier + wire capture (DESIGN §13).
  options.cgn = args.has("cgn");
  options.cgn_port_block = static_cast<std::uint16_t>(args.get_int("cgn-port-block", 512));
  options.cgn_max_ports_per_home =
      static_cast<std::uint32_t>(args.get_int("cgn-max-ports-per-home", 2048));
  if (const auto path = args.get("pcap-out")) options.pcap_out = *path;
  return options;
}

/// --resume: recover the spill directory, the one time it is read, before
/// anything runs. Its config record supplies every content-determining
/// option; only execution knobs (workers, checkpoint cadence) come from the
/// command line. A directory this build cannot resume is refused here,
/// before recovery changes a byte of it.
bool OptionsFromSpillDir(const std::string& dir, const ArgParser& args,
                         home::DeploymentOptions* out, std::string* error) {
  auto recovered = std::make_shared<collect::SpillRecovery>();
  if (!collect::RecoverSpillDir(dir, recovered.get(), error)) return false;
  if (!home::DecodeResumableOptions(recovered->config.options_blob, out, error)) return false;
  out->memory_budget_bytes = static_cast<std::size_t>(recovered->config.budget_bytes);
  out->spill_dir = dir;
  out->resume = std::move(recovered);
  out->workers = static_cast<int>(args.get_int("workers", 1));
  out->checkpoint_every = static_cast<std::uint64_t>(args.get_int("checkpoint-every", 0));
  return true;
}

/// Resolve run options for `run`/`report`: from the recovered spill
/// directory on --resume, from the flags otherwise. Returns false after
/// printing the error.
bool ResolveRunOptions(const ArgParser& args, home::DeploymentOptions* out) {
  if (const auto resume_dir = args.get("resume")) {
    std::string error;
    if (!OptionsFromSpillDir(*resume_dir, args, out, &error)) {
      std::fprintf(stderr, "error: cannot resume from %s: %s\n", resume_dir->c_str(),
                   error.c_str());
      return false;
    }
    return true;
  }
  *out = OptionsFrom(args);
  return true;
}

/// One line of recovery accounting, plus a stderr line per action the
/// operator should know about (truncated tails, quarantined sections).
void PrintRecovery(const home::Deployment& study) {
  const collect::SpillRecovery* rec = study.options().resume.get();
  if (rec == nullptr) return;
  std::printf("resumed from %s: %zu/%zu shards recovered, %llu sections verified, "
              "%llu quarantined, %llu manifest + %llu segment bytes truncated\n",
              study.options().spill_dir.c_str(), rec->done_shards.size(),
              study.shard_count(),
              static_cast<unsigned long long>(rec->sections_verified),
              static_cast<unsigned long long>(rec->sections_quarantined),
              static_cast<unsigned long long>(rec->manifest_bytes_truncated),
              static_cast<unsigned long long>(rec->segment_bytes_truncated));
  for (const auto& line : rec->diagnostics) {
    std::fprintf(stderr, "recovery: %s\n", line.c_str());
  }
}

/// The end of a run: one finish pass (collect/finish.h) reads every kind
/// once and feeds the fleet summary (fleet mode only), the public and
/// full-fidelity exports and the column snapshot together, whichever of
/// them were asked for. A resumed run, finished or not, computes its summary
/// here too. Outputs are reported in a fixed order once all are written.
/// Returns the wall-clock seconds it took.
double FinishRun(const home::Deployment& study, const ArgParser& args, bool fleet_summary) {
  const auto start = std::chrono::steady_clock::now();
  const collect::DataRepository& repo = study.repository();
  const int workers = study.options().workers;
  collect::FinishPass pass(repo, workers > 0 ? static_cast<std::size_t>(workers)
                                            : static_cast<std::size_t>(
                                                  ThreadPool::HardwareWorkers()));
  std::optional<analysis::FleetSummarizer> summarizer;
  if (fleet_summary) summarizer.emplace(pass);
  const auto export_dir = args.get("export");
  const auto full_dir = args.get("export-full");
  const auto snapshot_dir = args.get("snapshot-out");
  std::optional<collect::CsvExport> public_csv, full_csv;
  if (export_dir) public_csv.emplace(pass, *export_dir, collect::CsvView::kRelease);
  if (full_dir) full_csv.emplace(pass, *full_dir, collect::CsvView::kFull);
  std::optional<collect::ColumnSnapshotWriter> snapshot;
  // Columnar v3 directory: streamed kind by kind, so this works from spill
  // segments under --memory-budget-mb without materialising the repository.
  if (snapshot_dir) snapshot.emplace(pass, *snapshot_dir);
  pass.run();
  if (snapshot) snapshot->commit();

  if (summarizer) analysis::WriteFleetSummary(summarizer->take(), std::cout);
  if (public_csv) {
    std::printf("exported %zu public rows to %s (Traffic withheld, as in the paper)\n",
                public_csv->rows(), export_dir->c_str());
  }
  if (full_csv) {
    std::printf("exported %zu rows (every data set, full fidelity) to %s\n", full_csv->rows(),
                full_dir->c_str());
  }
  if (snapshot) std::printf("wrote columnar snapshot to %s/\n", snapshot_dir->c_str());
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

int CmdRun(const ArgParser& args) {
  home::DeploymentOptions options;
  if (!ResolveRunOptions(args, &options)) return 2;
  const int roster_homes = options.homes > 0 ? options.homes : home::TotalRouters();
  std::printf("simulating %d-home deployment (seed %llu%s%s)...\n", roster_homes,
              static_cast<unsigned long long>(options.seed),
              options.memory_budget_bytes > 0 ? ", fleet mode" : "",
              options.resume ? ", resuming" : "");
  const auto study = home::Deployment::RunStudy(options);
  PrintRecovery(*study);
  const auto counts = study->repository().counts();

  TextTable table({"dataset", "rows"});
  table.add_row({"heartbeat runs", TextTable::Int(static_cast<long long>(counts.heartbeat_runs))});
  table.add_row({"uptime reports", TextTable::Int(static_cast<long long>(counts.uptime))});
  table.add_row({"capacity probes", TextTable::Int(static_cast<long long>(counts.capacity))});
  table.add_row({"device censuses", TextTable::Int(static_cast<long long>(counts.device_counts))});
  table.add_row({"wifi scans", TextTable::Int(static_cast<long long>(counts.wifi_scans))});
  table.add_row({"traffic flows", TextTable::Int(static_cast<long long>(counts.flows))});
  table.add_row({"busy minutes", TextTable::Int(static_cast<long long>(counts.throughput_minutes))});
  table.add_row({"dns samples", TextTable::Int(static_cast<long long>(counts.dns))});
  // Only a NAT444 run grows the table: CGN-off output stays byte-identical.
  if (options.cgn) {
    table.add_row({"cgn events", TextTable::Int(static_cast<long long>(counts.cgn_events))});
  }
  table.print();

  if (options.cgn) {
    analysis::WriteCgnSummary(analysis::SummarizeCgn(study->repository()), std::cout);
  }
  if (!options.pcap_out.empty()) {
    std::printf("wrote pcap capture: %llu frames, %llu bytes to %s\n",
                static_cast<unsigned long long>(study->pcap_frames_captured()),
                static_cast<unsigned long long>(study->pcap_bytes_written()),
                options.pcap_out.c_str());
  }

  const auto& up = study->upload_stats();
  std::printf("upload pipeline");
  if (options.resume) {  // the manifest keeps no metrics: count this run's shards only
    std::printf(" (only the %zu of %zu shards this run simulated)",
                study->shard_count() - options.resume->done_shards.size(), study->shard_count());
  }
  std::printf(": %llu records spooled, %llu delivered in %llu batches "
              "(%llu attempts, %llu retries); %llu resends deduped, %llu dropped, "
              "%llu stranded\n",
              static_cast<unsigned long long>(up.records_spooled),
              static_cast<unsigned long long>(up.records_delivered),
              static_cast<unsigned long long>(up.batches_delivered),
              static_cast<unsigned long long>(up.attempts),
              static_cast<unsigned long long>(up.retries),
              static_cast<unsigned long long>(up.duplicate_transmissions),
              static_cast<unsigned long long>(up.records_dropped),
              static_cast<unsigned long long>(up.records_stranded));
  if (!study->collector_outages().empty()) {
    std::printf("collector outages: %zu windows, %s total\n",
                study->collector_outages().size(),
                FormatDuration(study->collector_outages().total()).c_str());
  }

  // Fleet mode: rows live in spill segments, so the headline distributions
  // come from streaming sketches over the finish pass.
  const double finish_s = FinishRun(*study, args, options.memory_budget_bytes > 0);
  return WriteObsOutputs(*study, args, "bismark_study run", finish_s);
}

int CmdReport(const ArgParser& args) {
  home::DeploymentOptions options;
  if (!ResolveRunOptions(args, &options)) return 2;
  const auto study = home::Deployment::RunStudy(options);
  PrintRecovery(*study);
  const auto& repo = study->repository();

  if (options.memory_budget_bytes > 0) {
    // Each Section 4-6 analysis below reads its kinds once per call, and on
    // a spilled repository every read is a k-way merge of the kind's
    // segments: one merge per kind per analysis call. Fleet mode reports
    // the streaming-sketch distributions of the single finish pass instead.
    PrintBanner("Fleet distributions (streaming)");
    const double finish_s = FinishRun(*study, args, /*fleet_summary=*/true);
    return WriteObsOutputs(*study, args, "bismark_study report", finish_s);
  }

  PrintBanner("Availability (Section 4)");
  const auto homes = analysis::AnalyzeAvailability(repo, {Minutes(10), 25.0});
  const auto summary = analysis::SummarizeRegions(homes);
  std::printf("median days between downtimes: developed %.1f, developing %.2f\n",
              summary.median_days_between_downtimes_developed,
              summary.median_days_between_downtimes_developing);
  std::printf("median downtime duration: developed %s, developing %s\n",
              FormatDuration(Seconds(summary.median_duration_s_developed)).c_str(),
              FormatDuration(Seconds(summary.median_duration_s_developing)).c_str());

  PrintBanner("Infrastructure (Section 5)");
  std::printf("devices/home: median %.1f, mean %.1f\n",
              analysis::UniqueDevicesCdf(repo).median(), analysis::MeanUniqueDevices(repo));
  const auto bands = analysis::UniqueDevicesPerBand(repo);
  std::printf("per band: 2.4 GHz median %.0f, 5 GHz median %.0f\n", bands.band24.median(),
              bands.band5.median());
  const auto neighbors = analysis::NeighborAps(repo);
  std::printf("neighbour APs: developed median %.0f, developing median %.0f\n",
              neighbors.developed.median(), neighbors.developing.median());
  const auto table5 = analysis::AlwaysConnected(repo);
  std::printf("always-connected homes: developed %.0f%%/%.0f%% (wired/wireless), "
              "developing %.0f%%/%.0f%%\n",
              table5.developed.wired_fraction() * 100,
              table5.developed.wireless_fraction() * 100,
              table5.developing.wired_fraction() * 100,
              table5.developing.wireless_fraction() * 100);

  PrintBanner("Usage (Section 6)");
  const auto diurnal = analysis::WirelessDiurnalProfile(repo);
  std::printf("diurnal wireless devices: weekday %.2f-%.2f, weekend %.2f-%.2f\n",
              diurnal.weekday_trough(), diurnal.weekday_peak(), diurnal.weekend_trough(),
              diurnal.weekend_peak());
  const auto saturation = analysis::LinkSaturation(repo);
  int under_half = 0, saturated = 0;
  for (const auto& p : saturation) {
    under_half += p.utilization_down_p95 < 0.5;
    saturated += p.utilization_down_p95 >= 0.95;
  }
  std::printf("downlink p95: %d/%zu homes under 50%%, %d saturating\n", under_half,
              saturation.size(), saturated);
  std::printf("bufferbloat homes (uplink > 1.05x capacity): %zu\n",
              analysis::OversaturatedUplinks(saturation).size());
  const auto devices = analysis::DeviceUsageShares(repo);
  const auto domains = analysis::DomainUsageShares(repo);
  std::printf("dominant device %.0f%% of home traffic; top domain %.0f%% of volume over "
              "%.0f%% of connections; whitelist covers %.0f%%\n",
              (devices.share_by_rank.empty() ? 0.0 : devices.share_by_rank[0]) * 100,
              domains.by_rank[0].volume_share * 100,
              domains.by_rank[0].conns_by_vol_rank * 100,
              domains.whitelisted_volume_share * 100);
  const double finish_s = FinishRun(*study, args, /*fleet_summary=*/false);
  return WriteObsOutputs(*study, args, "bismark_study report", finish_s);
}

int CmdAnalyze(const ArgParser& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "usage: bismark_study analyze <snapshot-dir|release-dir>\n");
    return 2;
  }
  const std::string path = args.positional()[1];
  if (std::filesystem::is_regular_file(path)) {
    std::fprintf(stderr,
                 "error: analyze reads a v3 snapshot directory (run --snapshot-out) or a "
                 "CSV release directory (run --export); %s is a file\n",
                 path.c_str());
    return 2;
  }
  const auto workers_arg = args.get_int("workers", 1);
  const std::size_t workers = workers_arg > 0
                                  ? static_cast<std::size_t>(workers_arg)
                                  : static_cast<std::size_t>(ThreadPool::HardwareWorkers());

  // A columnar snapshot directory maps per-kind segments lazily (homes and
  // windows included); any other directory is a public CSV release that
  // needs bare home registration.
  std::unique_ptr<collect::DataRepository> repo;
  if (collect::IsColumnSnapshotDir(path)) {
    std::string error;
    repo = collect::OpenColumnSnapshot(path, &error);
    if (!repo) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::printf("opened columnar snapshot %s (%zu rows, %zu homes)\n", path.c_str(),
                repo->total_rows(), repo->homes().size());
  } else {
    repo = std::make_unique<collect::DataRepository>(collect::DatasetWindows::Paper());
    const auto report = collect::ImportPublicDatasets(*repo, path);
    std::printf("imported %zu rows from %s\n", report.total_rows(), path.c_str());
    for (const auto& e : report.errors) std::fprintf(stderr, "warning: %s\n", e.c_str());
    if (report.total_rows() == 0) return 1;
    collect::RegisterReleaseHomes(*repo);
  }

  const auto homes = analysis::AnalyzeAvailability(*repo, {Minutes(10), 25.0});
  Cdf downtimes;
  for (const auto& h : homes) downtimes.add(h.downtimes_per_day());
  std::printf("homes: %zu qualifying\n", homes.size());
  std::printf("downtimes/day: %s\n", Summarize(downtimes).c_str());
  std::printf("devices/home: %s\n", Summarize(analysis::UniqueDevicesCdf(*repo)).c_str());
  if (repo->column_backed()) {
    // Per-stripe parallel sketch pass: bit-identical for any --workers
    // (partials merge in stripe index order).
    analysis::WriteFleetSummary(analysis::SummarizeFleet(*repo, workers), std::cout);
  }
  return 0;
}

/// Every numeric option, its type and its accepted range. main() checks
/// each given value once, before dispatch, whichever subcommand runs.
struct NumericOption {
  enum Kind { kNonNegativeInt, kPositiveInt, kNonNegative, kPositive, kProbability };
  const char* name;
  Kind kind;
  std::int64_t max{0};  // integer kinds: inclusive upper bound, 0 = none
};

constexpr std::int64_t kIntMax = INT32_MAX;  // options stored as int

constexpr NumericOption kNumericOptions[] = {
    {"seed", NumericOption::kNonNegativeInt},
    {"fault-seed", NumericOption::kNonNegativeInt},
    {"weeks", NumericOption::kNonNegativeInt, kIntMax},
    {"homes", NumericOption::kPositiveInt, kIntMax},
    {"workers", NumericOption::kNonNegativeInt, kIntMax},
    {"memory-budget-mb", NumericOption::kNonNegativeInt},
    {"checkpoint-every", NumericOption::kNonNegativeInt},
    {"spool-capacity", NumericOption::kPositiveInt},
    {"cgn-port-block", NumericOption::kPositiveInt, UINT16_MAX},
    {"cgn-max-ports-per-home", NumericOption::kPositiveInt, UINT32_MAX},
    {"scale", NumericOption::kPositive},
    {"collector-outages-per-month", NumericOption::kNonNegative},
    {"heartbeat-loss", NumericOption::kProbability},
    {"upload-loss", NumericOption::kProbability},
    {"ack-loss", NumericOption::kProbability},
};

/// The usage error for a malformed or out-of-range value of `opt`, or ""
/// when the value is absent or valid.
std::string CheckNumericOption(const ArgParser& args, const NumericOption& opt) {
  if (!args.has(opt.name)) return "";
  bool ok = false;
  std::string rule;
  if (opt.kind == NumericOption::kNonNegativeInt || opt.kind == NumericOption::kPositiveInt) {
    const std::int64_t min = opt.kind == NumericOption::kPositiveInt ? 1 : 0;
    const auto v = args.parse_int(opt.name);
    ok = v && *v >= min && (opt.max == 0 || *v <= opt.max);
    rule = min == 1 ? "a positive integer" : "a non-negative integer";
    if (opt.max != 0) rule += " (max " + std::to_string(opt.max) + ")";
  } else {
    const auto v = args.parse_double(opt.name);
    const double x = v && std::isfinite(*v) ? *v : -1.0;
    if (opt.kind == NumericOption::kNonNegative) {
      ok = x >= 0.0;
      rule = "a non-negative number";
    } else if (opt.kind == NumericOption::kPositive) {
      ok = x > 0.0;
      rule = "a positive number";
    } else {
      ok = x >= 0.0 && x <= 1.0;
      rule = "a probability in [0, 1]";
    }
  }
  if (ok) return "";
  return std::string("--") + opt.name + " must be " + rule + ", got '" + *args.get(opt.name) +
         "'";
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(
      "bismark_study: simulate, export and analyze the IMC'13 home-network study");
  args.add_option("seed", "deployment seed", "20131023");
  args.add_option("weeks", "compress the study to N weeks (0 = the paper's real windows)",
                  "0");
  args.add_option("scale", "scale the per-country roster (1.0 = 126 homes)", "1.0");
  args.add_option("homes", "exact roster size, apportioned over the Table 1 country mix "
                  "(overrides --scale; 126 = the default roster)");
  args.add_option("memory-budget-mb",
                  "fleet mode: bound record-staging memory to this many MiB by spilling "
                  "sorted segment runs to disk (0 = keep everything in RAM)", "0");
  args.add_option("spill-dir",
                  "segment-file directory for --memory-budget-mb (default bsmk-segments)");
  args.add_option("checkpoint-every",
                  "fleet mode: make the run durable (fsync segments + manifest) every K "
                  "committed shards (0 = only the write-ahead records)", "0");
  args.add_option("resume",
                  "resume an interrupted fleet run from this spill directory; run options "
                  "come from the recorded manifest (combine only with --workers, "
                  "--checkpoint-every and output flags)");
  args.add_option("workers", "worker threads for the run; 0 = all cores (results are "
                  "byte-identical for any value)", "1");
  args.add_option("export", "write the public CSVs to this directory");
  args.add_option("export-full",
                  "write every data set (including private traffic) to this directory "
                  "in full-fidelity CSV");
  args.add_option("snapshot-out",
                  "write a columnar (v3) snapshot of the repository to this directory; "
                  "streamed kind-by-kind, so it works under --memory-budget-mb");
  args.add_option("collector-outages-per-month",
                  "inject collector outages at this rate (0 = reliable collector)", "0");
  args.add_option("heartbeat-loss",
                  "i.i.d. per-heartbeat loss probability on the path to the collector",
                  "0.01");
  args.add_option("upload-loss",
                  "per-attempt probability an upload batch is lost before the collector",
                  "0");
  args.add_option("ack-loss", "per-attempt probability the collector's ack is lost "
                  "(commits, then forces a deduped resend)", "0");
  args.add_option("spool-capacity",
                  "per-home upload spool size in records (overflow drops oldest)", "8192");
  args.add_option("fault-seed",
                  "seed for fault/jitter streams (0 = derive from --seed)", "0");
  args.add_flag("cgn", "place every home behind a carrier-grade NAT tier (NAT444, "
                "deterministic RFC 7422 port blocks; 64 homes per CGN)");
  args.add_option("cgn-port-block",
                  "ports granted per CGN allocation block (requires --cgn)", "512");
  args.add_option("cgn-max-ports-per-home",
                  "cap on concurrently mapped CGN ports per home (requires --cgn)", "2048");
  args.add_option("pcap-out",
                  "capture every WAN-egress frame (post-NAT, post-CGN) to this classic "
                  "pcap file; byte-identical for any --workers");
  args.add_option("metrics-out",
                  "write the merged metrics as Prometheus text to this file "
                  "(byte-identical for any --workers)");
  args.add_option("run-report", "write the JSON run report to this file");
  args.add_flag("deterministic-report",
                "omit the run report's wall-clock section (for byte-for-byte diffs)");
  args.add_flag("no-traffic", "skip the Traffic window simulation");
  args.add_flag("help", "show this help");

  if (!args.parse(argc, argv) || args.has("help") || args.positional().empty()) {
    if (!args.error().empty()) std::fprintf(stderr, "error: %s\n\n", args.error().c_str());
    std::fputs(args.help("bismark_study <run|report|analyze>").c_str(), stderr);
    return args.has("help") ? 0 : 2;
  }

  const auto usage_error = [&args](const std::string& message) {
    std::fprintf(stderr, "error: %s\n\n", message.c_str());
    std::fputs(args.help("bismark_study <run|report|analyze>").c_str(), stderr);
    return 2;
  };
  // A malformed or out-of-range number is a usage error, never a silent
  // default (a garbled --homes is not a 0-home run).
  for (const NumericOption& opt : kNumericOptions) {
    if (const std::string error = CheckNumericOption(args, opt); !error.empty()) {
      return usage_error(error);
    }
  }
  // `analyze` writes nothing of its own yet, so a run or output option
  // would be silently dropped: every option but --workers is a usage error,
  // checked before anything (the spill-dir probe included) touches disk.
  // --seed is let through unused: perfbench/run.py appends it to every
  // call, analyze_5k's included, and it changes nothing a snapshot holds.
  if (args.positional()[0] == "analyze") {
    for (const std::string& name : args.given()) {
      if (name != "workers" && name != "seed") {
        return usage_error("--" + name + " does not apply to analyze (it takes only --workers)");
      }
    }
  }
  // Crash-safety knobs (DESIGN §12): a --resume that contradicts the
  // manifest-owned options or an unusable spill directory is a usage error
  // at startup, never a failure half-way into a run.
  if (args.get_int("checkpoint-every", 0) > 0 && args.get_int("memory-budget-mb", 0) <= 0 &&
      !args.has("resume")) {
    return usage_error(
        "--checkpoint-every requires fleet mode (--memory-budget-mb > 0 or --resume)");
  }
  if (args.has("spill-dir") && args.get_int("memory-budget-mb", 0) <= 0) {
    return usage_error("--spill-dir requires fleet mode (--memory-budget-mb > 0)");
  }
  // NAT444 knobs only mean something with the tier on.
  for (const char* name : {"cgn-port-block", "cgn-max-ports-per-home"}) {
    if (args.has(name) && !args.has("cgn")) {
      return usage_error(std::string("--") + name + " requires --cgn");
    }
  }
  // A block too large for a CGN's range to give each of its homes one
  // would leave every home without a port: every packet would drop.
  if (args.has("cgn")) {
    const net::CgnTable cgn(home::CgnTierConfig(OptionsFrom(args)));
    if (cgn.blocks_per_subscriber() == 0) {
      return usage_error("--cgn-port-block must be at most " +
                         std::to_string(cgn.max_port_block_size()) + " so each of a CGN's " +
                         std::to_string(cgn.config().subscriber_count) +
                         " homes gets a port block, got '" + *args.get("cgn-port-block") + "'");
    }
  }
  if (args.has("pcap-out") && args.has("resume")) {
    // Recovered shards skip their traffic window; the capture would be
    // silently partial.
    return usage_error("--pcap-out conflicts with --resume");
  }
  if (args.has("resume")) {
    if (args.get("resume")->empty()) {
      return usage_error("--resume needs the spill directory of the interrupted run");
    }
    static constexpr const char* kManifestOwned[] = {
        "seed",        "weeks",      "scale",      "homes",      "memory-budget-mb",
        "spill-dir",   "collector-outages-per-month", "heartbeat-loss",
        "upload-loss", "ack-loss",   "spool-capacity",           "fault-seed",
        "no-traffic",  "cgn",        "cgn-port-block", "cgn-max-ports-per-home"};
    for (const char* name : kManifestOwned) {
      if (args.has(name)) {
        return usage_error(std::string("--") + name +
                           " conflicts with --resume (the spill manifest supplies it)");
      }
    }
  }
  // The spill directory must be a writable directory before any work runs.
  // --resume never creates its directory: a missing one is left to the
  // recovery, which refuses it ("cannot resume from DIR: ...").
  {
    namespace fs = std::filesystem;
    std::error_code ec;
    std::string dir;
    if (const auto resume_dir = args.get("resume")) {
      if (fs::exists(*resume_dir, ec)) dir = *resume_dir;
    } else if (args.get_int("memory-budget-mb", 0) > 0) {
      dir = args.get_or("spill-dir", "bsmk-segments");
    }
    if (!dir.empty()) {
      if (fs::exists(dir, ec) && !fs::is_directory(dir, ec)) {
        return usage_error("spill dir " + dir + " exists and is not a directory");
      }
      fs::create_directories(dir, ec);
      if (ec) {
        return usage_error("cannot create spill dir " + dir + ": " + ec.message());
      }
      // Writability probe via plain ofstream: deliberately outside the Io
      // fault seam, so an injected fault plan exercises the run, not the
      // startup validation.
      const std::string probe = dir + "/.probe.tmp";
      std::ofstream f(probe, std::ios::binary);
      f << "probe";
      f.flush();
      const bool writable = static_cast<bool>(f);
      f.close();
      fs::remove(probe, ec);
      if (!writable) {
        return usage_error("spill dir " + dir + " is not writable");
      }
    }
  }

  // Injected I/O faults (BISMARK_IO_FAULT) arm before any durable write.
  {
    std::string error;
    if (!core::InstallIoFaultPlanFromEnv(&error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
  }

  const std::string& command = args.positional()[0];
  try {
    if (command == "run") return CmdRun(args);
    if (command == "report") return CmdReport(args);
    if (command == "analyze") return CmdAnalyze(args);
  } catch (const std::exception& e) {
    // I/O failures on the durable paths (full disk, failed fsync, corrupt
    // segments) throw with a precise diagnostic; a crash-safe tool turns
    // them into a clear nonzero exit, never a truncated-but-successful run.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s' (expected run, report or analyze)\n",
               command.c_str());
  return 2;
}
