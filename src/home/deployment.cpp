#include "home/deployment.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "collect/manifest.h"
#include "core/logging.h"
#include "home/resume.h"
#include "sim/engine.h"
#include "traffic/generator.h"

namespace bismark::home {

namespace {
// Stream salts: one label per run stage. Every per-home stream is derived
// as Rng::Stream(options.seed, salt, f(home id)), so a home's draws are a
// pure function of (seed, home id) — never of which shard or worker
// simulated it, or of how many homes exist.
constexpr std::uint64_t kHeartbeatSalt = 0xBEA7;
constexpr std::uint64_t kPassiveSalt = 0x5E57;
constexpr std::uint64_t kTrafficSalt = 0x7AFF1C;
// Upload jitter / fault sampling. Streams under this salt derive from the
// *fault* seed, so fault scenarios vary without touching record content.
constexpr std::uint64_t kUploadSalt = 0xB10AD;

/// Homes per shard for homes *without* traffic consent. Fixed (not derived
/// from the worker count) so the partition itself is deterministic. The
/// consented homes — each of which runs the full traffic window on the
/// event engine and costs an order of magnitude more — get singleton
/// shards instead (see Deployment::shard_plan), so the pool's dynamic
/// cursor can steal them individually rather than dragging a whole
/// 4-home block behind the heaviest member.
constexpr std::size_t kShardHomes = 4;

/// Fleet-mode block size (see Deployment::shard_plan): big enough that a
/// 100k-home run stays near ~3k shards, small enough that ephemeral
/// household state never exceeds a few dozen homes per worker.
constexpr std::size_t kFleetShardHomes = 32;

/// NAT444 topology: homes per carrier-grade NAT, assigned in roster order.
/// Each subscriber slot owns a disjoint slice of the CGN's external port
/// range (RFC 7422), so a home's CGN state is a pure function of its
/// roster index — shard-local, worker-count independent.
constexpr std::size_t kCgnSubscribersPerCgn = 64;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The one authoritative translation from the metrics registry to the
/// UploadStats view the tools and tests consume.
UploadStats UploadStatsFromMetrics(const obs::MetricsSnapshot& m) {
  UploadStats s;
  s.records_spooled = m.counter_or("bismark_upload_records_spooled_total");
  s.records_delivered = m.counter_or("bismark_upload_records_delivered_total");
  s.records_dropped = m.counter_or("bismark_upload_records_dropped_total");
  s.records_stranded = m.counter_or("bismark_upload_records_stranded_total");
  s.batches_delivered = m.counter_or("bismark_upload_batches_delivered_total");
  s.attempts = m.counter_or("bismark_upload_attempts_total");
  s.retries = m.counter_or("bismark_upload_retries_total");
  s.duplicate_transmissions = m.counter_or("bismark_upload_duplicate_transmissions_total");
  return s;
}

/// The engine's per-run counters and queue peak as metric handles. The
/// engine zeroes them at each reset(), so each run banks its own before
/// the next reuses the engine; all of them are per-home deterministic.
struct EngineMetrics {
  explicit EngineMetrics(obs::MetricsShard& metrics)
      : executed(metrics.counter("bismark_engine_events_executed_total")),
        scheduled(metrics.counter("bismark_engine_events_scheduled_total")),
        cancelled(metrics.counter("bismark_engine_events_cancelled_total")),
        callbacks_inline(metrics.counter("bismark_engine_callbacks_inline_total")),
        callbacks_heap(metrics.counter("bismark_engine_callbacks_heap_total")),
        queue_peak(metrics.gauge("bismark_engine_queue_peak")) {}

  void bank(const sim::Engine& engine) {
    executed.inc(engine.executed());
    scheduled.inc(engine.scheduled());
    cancelled.inc(engine.cancelled());
    callbacks_inline.inc(engine.callbacks_inline());
    callbacks_heap.inc(engine.callbacks_heap());
    queue_peak.observe(static_cast<double>(engine.queue_peak()));
  }

  obs::Counter executed, scheduled, cancelled, callbacks_inline, callbacks_heap;
  obs::Gauge queue_peak;
};
}  // namespace

net::CgnConfig CgnTierConfig(const DeploymentOptions& options) {
  net::CgnConfig config;
  config.subscriber_count = static_cast<std::uint32_t>(kCgnSubscribersPerCgn);
  config.port_block_size = options.cgn_port_block;
  config.max_ports_per_subscriber = options.cgn_max_ports_per_home;
  return config;
}

Deployment::Deployment(DeploymentOptions options)
    : options_(options), catalog_(traffic::DomainCatalog::BuildStandard()) {
  catalog_.install_zones(zones_);
  anonymizer_ = std::make_unique<gateway::Anonymizer>(
      catalog_, gateway::AnonymizerConfig{options_.seed ^ 0xA17Full, "anon-"});
  repo_ = std::make_unique<collect::DataRepository>(options_.windows);
}

void Deployment::build() {
  Rng root(options_.seed);
  const auto& windows = options_.windows;
  const Interval study = windows.heartbeats;

  // Roster assembly: per-country home counts, ids assigned in roster order.
  const auto& roster = StandardRoster();
  std::vector<int> counts(roster.size(), 0);
  if (options_.homes > 0) {
    // Exact-N roster: largest-remainder apportionment over the Table 1
    // country mix, in integer arithmetic so --homes 126 reproduces the
    // default roster bit-for-bit and ties resolve in roster order.
    const auto target = static_cast<long long>(options_.homes);
    const auto total = static_cast<long long>(TotalRouters());
    long long assigned = 0;
    std::vector<std::pair<long long, std::size_t>> by_remainder;
    for (std::size_t c = 0; c < roster.size(); ++c) {
      const long long scaled = target * roster[c].router_count;
      counts[c] = static_cast<int>(scaled / total);
      assigned += counts[c];
      by_remainder.emplace_back(-(scaled % total), c);
    }
    std::stable_sort(by_remainder.begin(), by_remainder.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (long long k = 0; k < target - assigned; ++k) {
      ++counts[by_remainder[static_cast<std::size_t>(k)].second];
    }
  } else {
    for (std::size_t c = 0; c < roster.size(); ++c) {
      counts[c] = std::max(1, static_cast<int>(std::lround(roster[c].router_count *
                                                           options_.roster_scale)));
    }
  }
  slots_.clear();
  for (std::size_t c = 0; c < roster.size(); ++c) {
    for (int i = 0; i < counts[c]; ++i) slots_.push_back(Slot{&roster[c], {}, false});
  }

  // Traffic consent: the first `traffic_homes` US homes; the first
  // `bufferbloat_homes` of those are the Fig. 16 case studies. Consent is
  // a property of the household regardless of whether the traffic window
  // is actually simulated this run.
  int us_seen = 0;
  for (auto& slot : slots_) {
    if (slot.country->code != "US" || us_seen >= options_.traffic_homes) continue;
    slot.opts.consent = gateway::ConsentLevel::kFullTraffic;
    slot.opts.min_devices = 3;  // Section 6.3: every traffic home has >= 3
    slot.opts.bufferbloat_case = us_seen < options_.bufferbloat_homes;
    slot.opts.bufferbloat_flavor = us_seen;  // 16a constant, 16b diurnal bursts
    ++us_seen;
  }

  // Churn participants: recruited late or departed early, never reaching
  // the 25-days-online bar. They contribute heartbeats only (no passive
  // data sets, no consent), like the paper's briefly-reporting routers.
  // Their country and window come from one serial stream.
  Rng churn_rng = root.fork("churn");
  for (int i = 0; i < options_.churn_homes; ++i) {
    const int id_value = static_cast<int>(slots_.size());
    const auto& country = roster[static_cast<std::size_t>(
        churn_rng.uniform_int(0, static_cast<std::int64_t>(roster.size()) - 1))];
    // Participation window: 3-20 days somewhere inside the study.
    const double window_days = (study.end - study.start).days();
    const double span = churn_rng.uniform(3.0, std::min(20.0, window_days * 0.8));
    const double start_day = churn_rng.uniform(0.0, std::max(0.1, window_days - span));
    churn_windows_[id_value] =
        Interval{study.start + Days(start_day), study.start + Days(start_day + span)};
    slots_.push_back(Slot{&country, {}, true});
  }

  // NAT444 placement: every home (churn included) sits behind a CGN.
  // Grouping and slicing derive from the roster index alone, so the
  // placement — like everything else about a home — is the same whichever
  // shard task constructs the household.
  if (options_.cgn) {
    for (std::size_t idx = 0; idx < slots_.size(); ++idx) {
      gateway::CgnPlacement& placement = slots_[idx].opts.cgn;
      placement.enabled = true;
      placement.cgn_id = static_cast<int>(idx / kCgnSubscribersPerCgn);
      placement.subscriber_index =
          static_cast<std::uint32_t>(idx % kCgnSubscribersPerCgn);
      placement.config = CgnTierConfig(options_);
      // One public address per CGN instance (TEST-NET-2, RFC 5737).
      placement.config.external_address = net::Ipv4Address(
          198, 51, 100, static_cast<std::uint8_t>(1 + placement.cgn_id % 250));
    }
  }
}

std::unique_ptr<Household> Deployment::make_household(std::size_t idx,
                                                      collect::RecordSink* sink) const {
  const Slot& slot = slots_[idx];
  const collect::HomeId id{static_cast<int>(idx)};
  const auto& windows = options_.windows;
  // Devices need presence wherever a passive data set samples them.
  const std::vector<Interval> presence_windows = {windows.wifi, windows.devices};
  Rng home_rng = Rng(options_.seed).fork(static_cast<std::uint64_t>(id.value) + 1000);
  return std::make_unique<Household>(id, *slot.country, windows.heartbeats, presence_windows,
                                     *anonymizer_, sink, home_rng, slot.opts);
}

collect::HomeInfo Deployment::home_info_for(const Household& hh, std::size_t idx) const {
  collect::HomeInfo info = hh.make_info();
  // Churn homes keep the bare make_info() view: they are outside every
  // Table 2 sub-population.
  if (slots_[idx].churn) return info;
  // Table 2 sub-population flags: 113 homes report uptime/devices, 93
  // report WiFi. Spread the drops across the roster deterministically.
  const int i = static_cast<int>(idx);
  info.reports_uptime = !(i % 10 == 9 || i == 125);
  info.reports_devices = info.reports_uptime;
  info.reports_wifi = (i % 4 != 1) && i != 122;
  // Firmware-side Table 5 computation (PII never leaves the home).
  info.has_always_wired = hh.has_always_connected(true, options_.windows.devices);
  info.has_always_wireless = hh.has_always_connected(false, options_.windows.devices);
  return info;
}

void Deployment::compute_collector_outages() {
  const auto& window = options_.windows.heartbeats;

  // Section 3.3: the collection infrastructure itself fails sometimes,
  // silencing every home at once. Those intervals are ground truth here;
  // analysis::DetectCollectionOutages must rediscover them from the data.
  // Because the process couples all homes it runs before sharding, from a
  // stream that depends on the seed alone.
  collector_down_ = IntervalSet{};
  if (options_.collector_outages_per_month > 0.0) {
    Rng outage_rng = Rng(options_.seed ^ kHeartbeatSalt).fork("collector");
    TimePoint t = window.start;
    const double mean_gap_days = 30.0 / options_.collector_outages_per_month;
    while (true) {
      t += Days(outage_rng.exponential(mean_gap_days));
      if (t >= window.end) break;
      const double dur_h =
          outage_rng.exponential(options_.collector_outage_mean.hours());
      collector_down_.add(t, t + Hours(std::max(0.2, dur_h)));
    }
  }
  collector_up_ = IntervalSet{};
  {
    TimePoint cursor = window.start;
    const IntervalSet clipped = collector_down_.clipped(window.start, window.end);
    for (const auto& gap : clipped.intervals()) {
      if (gap.start > cursor) collector_up_.add(cursor, gap.start);
      cursor = gap.end;
    }
    if (cursor < window.end) collector_up_.add(cursor, window.end);
  }

  // The same outage windows govern the upload path: batches attempted while
  // the collector is down fail and back off until it returns.
  fault_plan_ = net::FaultPlan(options_.upload_faults, collector_down_);
}

void Deployment::run_shard_heartbeats(const ShardHomes& homes,
                                      collect::IngestBatch& batch,
                                      obs::MetricsShard& metrics) {
  const auto& window = options_.windows.heartbeats;
  collect::CollectionServer server(batch, options_.heartbeat);
  obs::Counter simulated = metrics.counter("bismark_homes_simulated_total");
  for (const auto& home : homes) {
    simulated.inc();
    Interval participation = window;
    if (const auto it = churn_windows_.find(home->id().value); it != churn_windows_.end()) {
      participation = it->second;
    }
    IntervalSet online =
        home->timeline().online().clipped(participation.start, participation.end);
    if (!collector_down_.empty()) online = online.intersect(collector_up_);
    server.ingest_heartbeats(
        home->id(), online,
        Rng::Stream(options_.seed, kHeartbeatSalt,
                    static_cast<std::uint64_t>(home->id().value)));
  }
}

void Deployment::run_shard_passive(const ShardHomes& homes,
                                   const std::vector<collect::HomeInfo>& infos,
                                   collect::IngestBatch& batch, sim::Engine& engine,
                                   obs::MetricsShard& metrics) {
  const auto& w = options_.windows;
  const std::uint64_t fault_seed =
      options_.fault_seed != 0 ? options_.fault_seed : options_.seed;

  // Coarse once-per-home accounting. These feed home::UploadStats and the
  // conservation identity, so they stay live under BISMARK_OBS=OFF too;
  // resolving the handles here keeps the per-home loop map-free.
  obs::Counter spooled = metrics.counter("bismark_upload_records_spooled_total");
  obs::Counter delivered = metrics.counter("bismark_upload_records_delivered_total");
  obs::Counter dropped = metrics.counter("bismark_upload_records_dropped_total");
  obs::Counter stranded = metrics.counter("bismark_upload_records_stranded_total");
  obs::Counter batches = metrics.counter("bismark_upload_batches_delivered_total");
  obs::Counter attempts = metrics.counter("bismark_upload_attempts_total");
  obs::Counter retries = metrics.counter("bismark_upload_retries_total");
  obs::Counter duplicates = metrics.counter("bismark_upload_duplicate_transmissions_total");
  obs::Counter ingest_committed = metrics.counter("bismark_ingest_batches_committed_total");
  obs::Counter ingest_deduped = metrics.counter("bismark_ingest_batches_deduped_total");
  obs::Counter ingest_records = metrics.counter("bismark_ingest_records_committed_total");
  EngineMetrics engine_metrics(metrics);
  obs::Gauge spooled_max = metrics.gauge("bismark_home_records_spooled_max");

  for (std::size_t k = 0; k < homes.size(); ++k) {
    Household* home = homes[k].get();
    // Churn participants never stayed long enough to contribute the
    // passive data sets or scheduled capacity runs.
    if (churn_windows_.contains(home->id().value)) continue;
    const collect::HomeInfo& info = infos[k];
    const IntervalSet& router_on = home->timeline().router_on;
    const IntervalSet online = home->timeline().online();
    const auto id = static_cast<std::uint64_t>(home->id().value);

    // Every periodic service writes through the home's bounded spool; the
    // measurement streams are unchanged, so record *content* is identical
    // to the direct-ingest path — only delivery is now store-and-forward.
    gateway::UploadSpool spool(options_.upload.spool_capacity);
    if (info.reports_uptime) {
      gateway::ReportUptime(spool, home->id(), router_on, w.uptime);
    }
    gateway::ReportCapacity(spool, home->id(), online, home->link(),
                            Rng::Stream(options_.seed, kPassiveSalt, id * 2 + 1),
                            w.capacity);
    if (info.reports_devices) {
      gateway::ReportDeviceCounts(spool, home->id(), *home, router_on, w.devices);
    }
    if (info.reports_wifi) {
      gateway::WifiServiceConfig wifi_cfg;
      wifi_cfg.channel_24 = home->channel_24();
      gateway::ReportWifiScans(spool, home->id(), *home, home->neighborhood(), router_on,
                               w.wifi, Rng::Stream(options_.seed, kPassiveSalt, id * 2 + 2),
                               wifi_cfg);
    }

    // Replay the collection window on the sim clock: flush batches through
    // the fault plan into the collector's dedup gate (which commits into
    // the shard batch), retrying with backoff across outages. The drain
    // grace past window end lets tail-end batches finish retrying.
    collect::IdempotentIngest ingest(batch);
    gateway::Uploader uploader(engine, spool, fault_plan_, ingest, home->id(),
                               options_.upload, Rng::Stream(fault_seed, kUploadSalt, id));
    uploader.attach_obs(&metrics);
    engine.reset(w.heartbeats.start);
    uploader.start(w.heartbeats);
    engine.run_until(w.heartbeats.end + options_.upload.drain_grace);
    uploader.stop();

    const auto& st = uploader.stats();
    const auto& ig = ingest.stats();
    spooled.inc(spool.accepted());
    delivered.inc(st.records_delivered);
    dropped.inc(spool.dropped().total);
    stranded.inc(uploader.stranded());
    batches.inc(st.batches_delivered);
    attempts.inc(st.attempts);
    retries.inc(st.retries);
    duplicates.inc(st.duplicates_sent);
    ingest_committed.inc(ig.batches_committed);
    ingest_deduped.inc(ig.batches_deduped);
    ingest_records.inc(ig.records_committed);
    spooled_max.observe(static_cast<double>(spool.accepted()));
    // Per-kind drop ledger: register the labelled series only for kinds
    // that actually lost records, so clean runs export no empty series.
    // The labels come from the schema typelist, so a new record kind gets
    // its metric series without touching this loop.
    static_assert(collect::kRecordKindNames.size() == collect::kRecordKinds,
                  "spool-drop counter labels must cover every record kind");
    for (std::size_t kind = 0; kind < collect::kRecordKinds; ++kind) {
      const std::uint64_t lost = spool.dropped().by_kind[kind];
      if (lost == 0) continue;
      std::string name = "bismark_spool_dropped_total{kind=\"";
      name += collect::RecordKindName(kind);
      name += "\"}";
      metrics.counter(name).inc(lost);
    }
    engine_metrics.bank(engine);
  }
}

std::uint64_t Deployment::run_shard_traffic(const ShardHomes& homes, sim::Engine& engine,
                                            obs::MetricsShard& metrics,
                                            net::PcapBuffer* pcap) {
  std::vector<Household*> consenting;
  for (const auto& home : homes) {
    if (home->consent() == gateway::ConsentLevel::kFullTraffic) consenting.push_back(home.get());
  }
  if (consenting.empty()) return 0;

  const Interval window = options_.windows.traffic;
  engine.reset(window.start);

  // Per-home resolvers and generators live for the window. The zone and
  // domain catalogs are shared across shards but only read.
  std::vector<std::unique_ptr<net::DnsResolver>> resolvers;
  std::vector<std::unique_ptr<traffic::HomeTrafficGenerator>> generators;

  for (Household* hh : consenting) {
    const auto id = static_cast<std::uint64_t>(hh->id().value);
    // WAN-egress capture: outbound packets travel the byte-level wire
    // path into this shard's staging buffer (merged canonically at the
    // end of run(), so the file is worker-count independent).
    hh->router().attach_pcap(pcap);
    auto resolver = std::make_unique<net::DnsResolver>(zones_);
    auto generator = std::make_unique<traffic::HomeTrafficGenerator>(
        engine, catalog_, *resolver, hh->router(), hh->tz(),
        Rng::Stream(options_.seed, kTrafficSalt, id));

    // Households differ in how hard they use the network (the paper's
    // Fig. 15 spread from near-idle to saturating homes).
    Rng intensity_rng = Rng::Stream(options_.seed, kTrafficSalt, id * 977 + 5);
    const double home_intensity = intensity_rng.lognormal(0.0, 0.45);
    for (std::size_t i = 0; i < hh->devices().size(); ++i) {
      const Device& device = hh->devices()[i];
      const auto lease = hh->router().dhcp().acquire(device.spec().mac, window.start);
      if (!lease) continue;  // LAN pool exhausted (not expected)

      traffic::DeviceWorkload workload;
      workload.mac = device.spec().mac;
      workload.ip = lease->address;
      workload.type = device.spec().type;
      // Appetite ranks devices (primary selection); the session *rate* uses
      // the per-type calibration plus a boost for the household's primary.
      workload.hunger_scale = i == hh->primary_device() ? 6.0 : 0.7;
      workload.sessions_per_hour_peak =
          traffic::TraitsOf(device.spec().type).sessions_per_hour * home_intensity;
      workload.app_mix = traffic::AppMixOf(device.spec().type);
      // The bufferbloat case homes run an uploader: flavor 0 pushes
      // near-continuously (Fig. 16a's scientific-data home), flavor 1 in
      // diurnal bursts (Fig. 16b).
      if (hh->bufferbloat_case() && device.spec().type == traffic::DeviceType::kNas) {
        workload.app_mix = {};
        workload.app_mix[static_cast<std::size_t>(traffic::AppType::kBulkUpload)] = 1.0;
        workload.sessions_per_hour_peak = hh->bufferbloat_flavor() == 0 ? 0.6 : 0.14;
        workload.hunger_scale = 1.0;
      }
      const Device* dev_ptr = &device;
      workload.is_active = [hh, dev_ptr](TimePoint t) {
        return hh->timeline().available_at(t) && dev_ptr->wants_online(t);
      };
      generator->add_device(std::move(workload));
    }

    generator->start(window.start, window.end);
    resolvers.push_back(std::move(resolver));
    generators.push_back(std::move(generator));
  }

  engine.run_until(window.end);

  for (Household* hh : consenting) hh->router().finalize(window.end);
  metrics.counter("bismark_traffic_engine_events_total").inc(engine.executed());
  EngineMetrics(metrics).bank(engine);
  return engine.executed();
}

std::vector<Deployment::ShardSpan> Deployment::shard_plan() const {
  std::vector<ShardSpan> heavy;
  std::vector<ShardSpan> light;
  const std::size_t n = slots_.size();
  // Light-home block size. Fleet runs use bigger blocks so the per-shard
  // overheads (metrics shard, batch, segment sections) grow as homes/32
  // rather than homes/4. The block size cannot change any exported byte:
  // every SortKey carries the home id, so equal keys only collide within
  // one home, and a home never splits across shards.
  const std::size_t block = fleet_mode() ? kFleetShardHomes : kShardHomes;
  std::size_t run_start = 0;
  const auto flush_light = [&](std::size_t end) {
    for (std::size_t lo = run_start; lo < end; lo += block) {
      light.push_back(ShardSpan{lo, std::min(end, lo + block)});
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (slots_[i].opts.consent == gateway::ConsentLevel::kFullTraffic) {
      flush_light(i);
      heavy.push_back(ShardSpan{i, i + 1});
      run_start = i + 1;
    }
  }
  flush_light(n);
  // Heavy singletons first: the dynamic cursor deals tasks in index order,
  // so the long-pole shards start immediately and the cheap blocks fill
  // the stragglers' idle time.
  heavy.insert(heavy.end(), light.begin(), light.end());
  return heavy;
}

void Deployment::run() {
  const auto t_run = std::chrono::steady_clock::now();
  upload_stats_ = UploadStats{};
  metrics_ = obs::MetricsSnapshot{};
  telemetry_ = RunTelemetry{};

  compute_collector_outages();
  telemetry_.wall_outage_prepass_s = SecondsSince(t_run);

  const std::vector<ShardSpan> plan = shard_plan();
  const std::size_t shards = plan.size();
  // No thread, and in fleet mode no segment log, beyond one per shard.
  const int workers = PoolWorkers(
      static_cast<std::size_t>(options_.workers > 0 ? options_.workers
                                                    : ThreadPool::HardwareWorkers()),
      shards);

  // Shards whose rows and homes were recovered from the manifest and must
  // not be re-run (resume only; always all-zero on a fresh run).
  std::vector<char> shard_recovered(shards, 0);
  const collect::SpillRecovery* const recovered = options_.resume.get();

  if (options_.resume && !fleet_mode()) {
    throw std::runtime_error("resume requires fleet mode (a memory budget and spill dir)");
  }
  if (options_.resume && !options_.pcap_out.empty()) {
    // Recovered shards never re-run their traffic window, so a resumed
    // capture would silently miss their frames.
    throw std::runtime_error("--pcap-out cannot be combined with --resume");
  }
  if (fleet_mode() && !repo_->spilling()) {
    collect::SpillConfig scfg;
    scfg.dir = options_.spill_dir.empty() ? "bsmk-segments" : options_.spill_dir;
    scfg.budget_bytes = options_.memory_budget_bytes;
    scfg.workers = static_cast<std::size_t>(workers);
    scfg.verify_checksums = options_.spill_verify_checksums;
    if (recovered != nullptr) {
      // The blob pins every content-determining option, so equality here
      // guarantees the recovered sections merge byte-identically with the
      // shards this run regenerates.
      if (recovered->config.options_blob != EncodeResumableOptions(options_)) {
        throw std::runtime_error(
            "resume: options do not match the run recorded in " + scfg.dir +
            " (seed/windows/roster/fault knobs must be identical; pass --resume "
            "alone and let the manifest supply them)");
      }
      if (recovered->config.shard_count != shards) {
        throw std::runtime_error("resume: shard plan mismatch (manifest has " +
                                 std::to_string(recovered->config.shard_count) +
                                 " shards, this run plans " + std::to_string(shards) + ")");
      }
      for (const std::uint32_t s : recovered->done_shards) {
        if (s < shards) shard_recovered[s] = 1;
      }
      repo_->enable_spill_recovered(scfg, *recovered);
    } else {
      repo_->enable_spill(scfg);
    }
    // WAL: the run-config record is fsynced before any section or
    // shard-done record can reference it.
    collect::ManifestConfig mcfg;
    mcfg.schema_fingerprint = collect::SchemaFingerprint();
    mcfg.budget_bytes = options_.memory_budget_bytes;
    mcfg.generation = repo_->spill()->generation();
    mcfg.shard_count = static_cast<std::uint32_t>(shards);
    mcfg.options_blob = EncodeResumableOptions(options_);
    repo_->spill()->write_run_config(mcfg);
  }

  // One metrics shard per *shard* (determinism unit; each shard task also
  // stages into its own batch), one engine per *worker* (execution unit).
  // The metrics shards merge in shard-index order below, so their contents
  // are independent of which worker ran which shard. One extra shard holds
  // the recovery counters, appended only on resume so a fresh run's merged
  // registry (and with it every golden) is untouched.
  std::vector<obs::MetricsShard> metric_shards(shards + (recovered != nullptr ? 1 : 0));

  // One capture buffer per shard: gateways append frames in simulation
  // order, and the writer merges all buffers into the canonical
  // (timestamp, home) order at the end.
  std::vector<net::PcapBuffer> pcap_buffers;
  const bool capture = !options_.pcap_out.empty();
  if (capture) pcap_buffers.resize(shards);

  ThreadPool pool(workers);
  std::vector<std::unique_ptr<sim::Engine>> engines(
      static_cast<std::size_t>(pool.workers()));
  std::atomic<std::uint64_t> traffic_events{0};
  std::atomic<std::uint64_t> committed_shards{
      recovered != nullptr ? static_cast<std::uint64_t>(recovered->done_shards.size()) : 0};

  collect::SpillDir* const spill = repo_->spill();
  const auto t_sharded = std::chrono::steady_clock::now();
  pool.parallel_for(shards, [&](std::size_t shard, int worker) {
    if (shard_recovered[shard]) return;  // rows + homes adopted from the manifest
    obs::MetricsShard& metrics = metric_shards[shard];
    auto& engine = engines[static_cast<std::size_t>(worker)];
    if (!engine) engine = std::make_unique<sim::Engine>(options_.windows.heartbeats.start);

    // A shard owns its households only for the duration of this task:
    // construct them from their slots, writing into the shard's own batch
    // (every stream is a pure function of (seed, home id), so no home can
    // tell which shard or worker built it), simulate, commit, register,
    // drop.
    collect::IngestBatch batch = repo_->make_batch();
    if (spill != nullptr) {
      batch.attach_spill(spill, static_cast<std::uint32_t>(shard),
                         static_cast<std::size_t>(worker));
    }
    ShardHomes homes;
    std::vector<collect::HomeInfo> infos;
    for (std::size_t i = plan[shard].lo; i < plan[shard].hi; ++i) {
      homes.push_back(make_household(i, &batch));
      infos.push_back(home_info_for(*homes.back(), i));
    }

    run_shard_heartbeats(homes, batch, metrics);
    run_shard_passive(homes, infos, batch, *engine, metrics);
    if (options_.run_traffic) {
      traffic_events += run_shard_traffic(homes, *engine, metrics,
                                          capture ? &pcap_buffers[shard] : nullptr);
    }
    // Commit and registration are thread-safe, and their order across
    // shards is a race that finalize_deterministic_order() below erases.
    // A spilled batch flushes its residue to its segment log here, so
    // staging memory stays bounded by (threshold x workers). WAL order:
    // sections reach the OS inside commit(), *then* the shard-done record
    // makes the shard recoverable, then the homes register.
    repo_->commit(std::move(batch));
    if (spill != nullptr) {
      spill->record_shard_done(static_cast<std::uint32_t>(shard), infos);
      const std::uint64_t done = committed_shards.fetch_add(1) + 1;
      if (options_.checkpoint_every != 0 && done % options_.checkpoint_every == 0) {
        spill->checkpoint();
      }
    }
    for (auto& info : infos) repo_->register_home(std::move(info));
  });
  telemetry_.wall_sharded_run_s = SecondsSince(t_sharded);
  telemetry_.pool = pool.last_round_stats();
  telemetry_.workers = pool.workers();

  // Impose the canonical (timestamp, home id) order: it makes the
  // repository bytes independent of the worker count and of the dynamic
  // shard schedule, which decided the commit order above. The metrics
  // merge follows the same discipline: shard-index order, canonical name
  // sort.
  const auto t_commit = std::chrono::steady_clock::now();
  repo_->finalize_deterministic_order();
  if (recovered != nullptr) {
    obs::MetricsShard& rs = metric_shards[shards];
    rs.counter("bismark_recovery_sections_verified_total").inc(recovered->sections_verified);
    rs.counter("bismark_recovery_sections_quarantined_total")
        .inc(recovered->sections_quarantined);
    rs.counter("bismark_recovery_shards_recovered_total")
        .inc(static_cast<std::uint64_t>(recovered->done_shards.size()));
    rs.counter("bismark_recovery_shards_dropped_total").inc(recovered->shards_dropped);
    rs.counter("bismark_recovery_manifest_bytes_truncated_total")
        .inc(recovered->manifest_bytes_truncated);
    rs.counter("bismark_recovery_segment_bytes_truncated_total")
        .inc(recovered->segment_bytes_truncated);
  }
  metrics_ = obs::MergeShards(metric_shards);
  upload_stats_ = UploadStatsFromMetrics(metrics_);

  pcap_frames_captured_ = 0;
  pcap_bytes_written_ = 0;
  if (capture) {
    std::vector<const net::PcapBuffer*> bufs;
    bufs.reserve(pcap_buffers.size());
    for (const net::PcapBuffer& b : pcap_buffers) {
      pcap_frames_captured_ += b.frame_count();
      bufs.push_back(&b);
    }
    pcap_bytes_written_ = net::WritePcapFile(options_.pcap_out, bufs);
    BISMARK_LOG_INFO("deployment", "pcap: wrote %llu frames (%llu bytes) to %s",
                     static_cast<unsigned long long>(pcap_frames_captured_),
                     static_cast<unsigned long long>(pcap_bytes_written_),
                     options_.pcap_out.c_str());
  }
  telemetry_.wall_commit_s = SecondsSince(t_commit);

  telemetry_.engine_events = metrics_.counter_or("bismark_engine_events_executed_total");
  telemetry_.wall_total_s = SecondsSince(t_run);

  if (options_.run_traffic) {
    BISMARK_LOG_INFO("deployment", "traffic window complete: %llu events across %zu shards",
                     static_cast<unsigned long long>(traffic_events.load()), shards);
  }
}

std::unique_ptr<Deployment> Deployment::RunStudy(DeploymentOptions options) {
  auto deployment = std::make_unique<Deployment>(options);
  deployment->build();
  deployment->run();
  return deployment;
}

obs::RunReport MakeRunReport(const Deployment& study, std::string tool,
                             bool include_volatile) {
  const DeploymentOptions& opt = study.options();
  const RunTelemetry& tel = study.telemetry();

  obs::RunReport report;
  report.tool = std::move(tool);
  report.seed = opt.seed;
  report.fault_seed = opt.fault_seed != 0 ? opt.fault_seed : opt.seed;
  report.roster_scale = opt.roster_scale;
  report.homes = study.roster_size();
  report.shards = study.shard_count();
  report.traffic = opt.run_traffic;
  report.metrics = study.metrics();
  report.conservation = obs::ConservationFromMetrics(study.metrics());

  report.include_volatile = include_volatile;
  report.wall_total_s = tel.wall_total_s;
  report.phases = {{"outage_prepass", tel.wall_outage_prepass_s},
                   {"sharded_run", tel.wall_sharded_run_s},
                   {"commit", tel.wall_commit_s}};
  report.workers = tel.workers;
  for (std::size_t w = 0; w < tel.pool.size(); ++w) {
    report.pool.push_back(obs::WorkerUtilization{static_cast<int>(w), tel.pool[w].tasks,
                                                 tel.pool[w].busy_s});
  }
  report.engine_events_per_s = tel.wall_sharded_run_s > 0.0
                                   ? static_cast<double>(tel.engine_events) /
                                         tel.wall_sharded_run_s
                                   : 0.0;
  return report;
}

}  // namespace bismark::home
