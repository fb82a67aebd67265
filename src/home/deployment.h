// The full study: build the Table 1 roster of homes, run every
// measurement service over the Table 2 windows, and return the populated
// data repository — the input to the analysis layer and every bench. A
// fleet run spills to a segment directory (collect/spill.h); a resumed one
// is handed that directory already recovered (DeploymentOptions::resume),
// so the deployment never reads a manifest itself.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bismark/uploader.h"
#include "collect/repository.h"
#include "collect/server.h"
#include "core/thread_pool.h"
#include "home/household.h"
#include "net/fault_plan.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "traffic/domains.h"

namespace bismark::sim {
class Engine;
}

namespace bismark::home {

struct DeploymentOptions {
  std::uint64_t seed{42};
  collect::DatasetWindows windows = collect::DatasetWindows::Paper();
  collect::HeartbeatPathConfig heartbeat;
  /// Number of US homes recruited into the Traffic data set (paper: 25).
  int traffic_homes{25};
  /// Of which, bufferbloat case-study homes (paper observes 2, Fig. 16).
  int bufferbloat_homes{2};
  /// Simulate the full traffic window with the event engine. Disabling
  /// skips the Traffic data set (fast availability/infrastructure runs).
  bool run_traffic{true};
  /// Scale factor on per-country router counts (1.0 = the full 126).
  double roster_scale{1.0};
  /// Exact roster size (0 = use roster_scale). Homes are apportioned over
  /// the Table 1 country mix by largest remainder in integer arithmetic,
  /// so --homes 126 reproduces the default roster bit-for-bit.
  int homes{0};
  /// Fleet mode: > 0 bounds record-staging memory. Shard batches spill
  /// sorted segment runs to disk past the budget (collect/spill.h) instead
  /// of staying in RAM until the end of the run. Record content is a pure
  /// function of (seed, home id), so exports stay byte-identical to the
  /// in-RAM path.
  std::size_t memory_budget_bytes{0};
  /// Segment-file directory for fleet mode ("" = "bsmk-segments").
  std::string spill_dir;
  /// Fleet mode: every K committed shards, fsync every segment log and the
  /// manifest (a durability barrier; nothing is appended). 0 = only the
  /// write-ahead records: the run config is fsynced, and each section and
  /// shard-done record reaches the OS before anything depends on it.
  std::uint64_t checkpoint_every{0};
  /// Resume an interrupted fleet run: spill_dir as collect::RecoverSpillDir
  /// recovered it (torn tails truncated, corrupt sections quarantined).
  /// run() adopts every completed shard's rows and homes and re-runs only
  /// the rest. The content-determining options above must match the
  /// recorded run — run() refuses a mismatching resume. Requires
  /// memory_budget_bytes > 0. Null: a fresh run.
  std::shared_ptr<const collect::SpillRecovery> resume;
  /// Read-side segment CRC verification. The checksum-overhead bench is
  /// the only caller that turns this off; every production path keeps it on.
  bool spill_verify_checksums{true};
  /// Collection-infrastructure outages (Section 3.3): the central server
  /// itself goes down this many times per month, silencing *every* home's
  /// heartbeats at once. 0 = perfectly reliable collector.
  double collector_outages_per_month{0.0};
  Duration collector_outage_mean{Hours(3)};
  /// Short-lived participants beyond the core roster. The paper's Fig. 2
  /// shows 295 routers ever contributed data but only 126 reported
  /// consistently; churn homes participate for a brief window and are
  /// dropped by the analysis' >= 25-days-online filter (Section 3.2.2).
  int churn_homes{0};
  /// Store-and-forward upload pipeline: every periodic measurement service
  /// writes through a bounded per-home spool; an uploader flushes batches
  /// on this policy's cadence and retries failures with backoff. Heartbeats
  /// stay live (they are the liveness signal itself).
  gateway::UploadPolicy upload;
  /// Upload-path fault injection: request and ack loss. Collector outage
  /// windows come from collector_outages_per_month above and apply to
  /// uploads as well as heartbeats.
  net::FaultConfig upload_faults;
  /// Seed for the fault-injection and upload-jitter streams. 0 derives it
  /// from `seed`, so default runs stay reproducible from one number while
  /// fault scenarios can be varied without touching measurement content.
  std::uint64_t fault_seed{0};
  /// Worker threads for run(): the roster is split into fixed-size shards,
  /// each simulated on its own sim::Engine with per-home RNG streams
  /// derived from (seed, home id), and merged deterministically. 0 = one
  /// worker per hardware thread; never more workers than shards.
  /// Repository contents and exports are byte-identical for every value.
  int workers{1};
  /// NAT444: place every home behind a carrier-grade NAT tier. Homes are
  /// grouped 64 to a CGN in roster order; each subscriber owns a disjoint
  /// slice of the CGN's external port range (RFC 7422 deterministic
  /// port-block allocation), so per-home state stays shard-local and
  /// exports stay byte-identical across worker counts. Off by default —
  /// CGN-off runs reproduce the pre-CGN golden exports exactly.
  bool cgn{false};
  /// Ports handed to a subscriber per block grant (RFC 7422).
  std::uint16_t cgn_port_block{512};
  /// Hard per-subscriber cap on concurrently-mapped CGN ports.
  std::uint32_t cgn_max_ports_per_home{2048};
  /// Write every WAN-egress frame (post home-NAT, post CGN when enabled)
  /// to this classic-pcap file ("" = no capture). Frames are staged in
  /// per-shard buffers and merged in canonical (timestamp, home) order, so
  /// the file is byte-identical for every worker count.
  std::string pcap_out;
};

/// The CGN every home sits behind when `options.cgn` is set: 64 homes
/// share one, with the options' block size and per-home port cap. The
/// deployment gives each instance its own external address.
[[nodiscard]] net::CgnConfig CgnTierConfig(const DeploymentOptions& options);

/// Aggregate accounting of the upload pipeline across all homes, sourced
/// from the obs metrics registry (the `bismark_upload_*_total` counters)
/// after the per-shard merge — one authoritative place. The conservation
/// identity `records_spooled == records_delivered + records_dropped +
/// records_stranded` holds exactly, and every field is byte-identical
/// across worker counts for a fixed (seed, fault_seed).
struct UploadStats {
  std::uint64_t records_spooled{0};
  std::uint64_t records_delivered{0};
  std::uint64_t records_dropped{0};    ///< spool overflow (drop-oldest ledger)
  std::uint64_t records_stranded{0};   ///< undelivered when the drain window closed
  std::uint64_t batches_delivered{0};
  std::uint64_t attempts{0};
  std::uint64_t retries{0};
  std::uint64_t duplicate_transmissions{0};  ///< resends absorbed by the dedup gate
};

/// Wall-clock and scheduling telemetry of the last run(). All of it is
/// *volatile* — it varies with machine load and worker count — and feeds
/// only the run report's "wall" section, never the deterministic metrics.
struct RunTelemetry {
  double wall_total_s{0.0};
  double wall_outage_prepass_s{0.0};
  double wall_sharded_run_s{0.0};
  double wall_commit_s{0.0};
  /// Threads the run used: options.workers (or the hardware count),
  /// capped at the shard count.
  int workers{0};
  std::vector<ThreadPool::WorkerStats> pool;
  /// Deterministic total of engine events executed across all shards;
  /// paired with wall_sharded_run_s it gives the volatile throughput.
  std::uint64_t engine_events{0};
};

/// The deployment: the roster of homes plus the machinery to run the study.
class Deployment {
 public:
  explicit Deployment(DeploymentOptions options);

  /// Assemble the roster (deterministic in the seed). No household exists
  /// yet: each shard task in run() constructs its homes, registers them in
  /// the repository and drops them.
  void build();

  /// True when run() stages through the spill path (memory_budget_bytes > 0).
  [[nodiscard]] bool fleet_mode() const { return options_.memory_budget_bytes > 0; }

  /// Roster size (homes simulated by run()), valid after build().
  [[nodiscard]] std::size_t roster_size() const { return slots_.size(); }

  /// Construct the household for roster slot `idx` (< roster_size()),
  /// writing its records into `sink` (none when null). Rng::fork is a pure
  /// function of (seed, tag), so every call, in run()'s shard tasks or
  /// outside them, makes exactly the same home.
  [[nodiscard]] std::unique_ptr<Household> make_household(
      std::size_t idx, collect::RecordSink* sink = nullptr) const;

  /// Run every data collection stage into the repository, on
  /// `options().workers` threads. The collector-outage pre-pass (which
  /// couples all homes, Section 3.3) runs first and serially; everything
  /// per-home runs sharded. Record order afterwards is canonical
  /// (timestamp, home id) regardless of worker count.
  void run();

  [[nodiscard]] collect::DataRepository& repository() { return *repo_; }
  [[nodiscard]] const collect::DataRepository& repository() const { return *repo_; }
  [[nodiscard]] const traffic::DomainCatalog& catalog() const { return catalog_; }
  [[nodiscard]] const DeploymentOptions& options() const { return options_; }
  /// Ground truth of the collector's own downtime (for validating the
  /// artifact detector; empty when collector_outages_per_month is 0).
  [[nodiscard]] const IntervalSet& collector_outages() const { return collector_down_; }
  /// One contiguous run of homes simulated as a unit (a determinism unit:
  /// one IngestBatch, one MetricsShard).
  struct ShardSpan {
    std::size_t lo{0};
    std::size_t hi{0};
  };
  /// The shard partition: each traffic-consented home is its own shard
  /// (they cost an order of magnitude more than the rest), listed first so
  /// the pool's dynamic cursor deals the heavy work out early; everyone
  /// else is grouped into small fixed blocks. A pure function of the
  /// roster — never of the worker count — so the merge order, and with it
  /// every export byte, is identical at any --workers value.
  [[nodiscard]] std::vector<ShardSpan> shard_plan() const;

  /// Upload-pipeline accounting for the last run() (all homes summed).
  [[nodiscard]] const UploadStats& upload_stats() const { return upload_stats_; }
  /// Pcap capture accounting for the last run() (0 when pcap_out is "").
  [[nodiscard]] std::uint64_t pcap_frames_captured() const { return pcap_frames_captured_; }
  [[nodiscard]] std::uint64_t pcap_bytes_written() const { return pcap_bytes_written_; }
  /// The fault plan the last run() uploaded through (outages + loss).
  [[nodiscard]] const net::FaultPlan& fault_plan() const { return fault_plan_; }

  /// Merged metrics of the last run(): per-shard registries combined in
  /// canonical name order — byte-identical for any worker count.
  [[nodiscard]] const obs::MetricsSnapshot& metrics() const { return metrics_; }
  /// Wall-clock/scheduling telemetry of the last run() (volatile).
  [[nodiscard]] const RunTelemetry& telemetry() const { return telemetry_; }
  /// Shard count the roster partitions into (fixed by the roster, not by
  /// the worker count).
  [[nodiscard]] std::size_t shard_count() const { return shard_plan().size(); }

  /// Kept only so perfbench's bench_trace still compiles: a no-op. The
  /// fleet summary has no durable form; a resumed run computes it in its
  /// finish pass. Remove it, with bench_trace's call, in the next benchmark
  /// change.
  void save_fleet_summary_checkpoint(const std::string& /*unused*/) {}

  /// Convenience: build + run in one call.
  static std::unique_ptr<Deployment> RunStudy(DeploymentOptions options);

 private:
  DeploymentOptions options_;
  traffic::DomainCatalog catalog_;
  net::ZoneCatalog zones_;
  std::unique_ptr<gateway::Anonymizer> anonymizer_;
  std::unique_ptr<collect::DataRepository> repo_;
  IntervalSet collector_down_;
  IntervalSet collector_up_;
  net::FaultPlan fault_plan_;
  UploadStats upload_stats_;
  obs::MetricsSnapshot metrics_;
  RunTelemetry telemetry_;
  std::map<int, Interval> churn_windows_;
  std::uint64_t pcap_frames_captured_{0};
  std::uint64_t pcap_bytes_written_{0};

  /// One roster position: everything needed to construct its household
  /// deterministically. The shard task that runs the home builds it from
  /// this.
  struct Slot {
    const CountryProfile* country{nullptr};
    HouseholdOptions opts;
    bool churn{false};
  };
  std::vector<Slot> slots_;

  /// One shard's households, in roster order, alive for its task only.
  using ShardHomes = std::vector<std::unique_ptr<Household>>;

  /// The registry entry for slot `idx`, including the Table 2
  /// sub-population flags and the firmware-side Table 5 booleans.
  [[nodiscard]] collect::HomeInfo home_info_for(const Household& hh, std::size_t idx) const;

  /// Serial pre-pass: the collector's own outage process, which silences
  /// every home at once and therefore cannot be sharded.
  void compute_collector_outages();

  // Per-shard stages over one shard's homes, writing into the shard's
  // batch (the traffic stage through each gateway's sink) and counting into
  // `metrics` (owned by this shard — single-writer, lock-free). `infos[k]`
  // is the registry entry of `homes[k]`.
  void run_shard_heartbeats(const ShardHomes& homes, collect::IngestBatch& batch,
                            obs::MetricsShard& metrics);
  void run_shard_passive(const ShardHomes& homes, const std::vector<collect::HomeInfo>& infos,
                         collect::IngestBatch& batch, sim::Engine& engine,
                         obs::MetricsShard& metrics);
  std::uint64_t run_shard_traffic(const ShardHomes& homes, sim::Engine& engine,
                                  obs::MetricsShard& metrics, net::PcapBuffer* pcap);
};

/// Assemble the machine-readable run report for a completed study.
/// `tool` names the producing binary (lands in the report's "tool" field);
/// set include_volatile = false for byte-identical output across worker
/// counts (the wall-clock section is the only non-deterministic part).
[[nodiscard]] obs::RunReport MakeRunReport(const Deployment& study, std::string tool,
                                           bool include_volatile = true);

}  // namespace bismark::home
