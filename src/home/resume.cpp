#include "home/resume.h"

#include "collect/binio.h"

namespace bismark::home {

namespace {

constexpr char kBlobMagic[4] = {'B', 'S', 'O', 'P'};
// v2: appended the NAT444 knobs (cgn, cgn_port_block,
// cgn_max_ports_per_home) — they shape the CgnEventRecord stream, so a
// resumed run must pin them. pcap_out stays out of the blob: it is an
// output destination, not record content (and resume rejects it anyway).
constexpr std::uint32_t kBlobVersion = 2;

bool Fail(std::string* error, const std::string& reason) {
  if (error) *error = "resume options: " + reason;
  return false;
}

}  // namespace

std::string EncodeResumableOptions(const DeploymentOptions& o) {
  collect::BinWriter w;
  w.raw(kBlobMagic, sizeof(kBlobMagic));
  w.u32(kBlobVersion);

  w.u64(o.seed);
  w.u64(o.fault_seed);

  collect::EncodeWindows(w, o.windows);

  w.i64(o.heartbeat.period.ms);
  w.f64(o.heartbeat.loss_prob);
  w.i64(o.heartbeat.downtime_threshold.ms);

  w.i32(o.traffic_homes);
  w.i32(o.bufferbloat_homes);
  w.value(o.run_traffic);
  w.f64(o.roster_scale);
  w.i32(o.homes);
  w.i32(o.churn_homes);

  w.f64(o.collector_outages_per_month);
  w.i64(o.collector_outage_mean.ms);

  w.u64(static_cast<std::uint64_t>(o.upload.spool_capacity));
  w.i64(o.upload.flush_period.ms);
  w.u64(static_cast<std::uint64_t>(o.upload.max_batch_records));
  w.i64(o.upload.backoff_base.ms);
  w.i64(o.upload.backoff_cap.ms);
  w.f64(o.upload.jitter_frac);
  w.i64(o.upload.drain_grace.ms);

  w.f64(o.upload_faults.upload_loss_prob);
  w.f64(o.upload_faults.ack_loss_prob);
  w.i64(o.upload_faults.base_latency.ms);
  w.i64(o.upload_faults.latency_jitter.ms);

  w.value(o.cgn);
  w.u32(o.cgn_port_block);
  w.u32(o.cgn_max_ports_per_home);

  return w.buffer();
}

bool DecodeResumableOptions(const std::string& blob, DeploymentOptions* out,
                            std::string* error) {
  collect::BinReader r(blob.data(), blob.size());
  char magic[sizeof(kBlobMagic)] = {};
  for (auto& c : magic) c = static_cast<char>(r.u8());
  if (r.failed() || std::string_view(magic, sizeof(magic)) !=
                        std::string_view(kBlobMagic, sizeof(kBlobMagic))) {
    return Fail(error, "bad magic (not an options blob)");
  }
  const std::uint32_t version = r.u32();
  if (version != kBlobVersion) {
    return Fail(error, "unsupported blob version " + std::to_string(version));
  }

  DeploymentOptions o;
  o.seed = r.u64();
  o.fault_seed = r.u64();

  o.windows = collect::DecodeWindows(r);

  o.heartbeat.period.ms = r.i64();
  o.heartbeat.loss_prob = r.f64();
  o.heartbeat.downtime_threshold.ms = r.i64();

  o.traffic_homes = r.i32();
  o.bufferbloat_homes = r.i32();
  r.value(o.run_traffic);
  o.roster_scale = r.f64();
  o.homes = r.i32();
  o.churn_homes = r.i32();

  o.collector_outages_per_month = r.f64();
  o.collector_outage_mean.ms = r.i64();

  o.upload.spool_capacity = static_cast<std::size_t>(r.u64());
  o.upload.flush_period.ms = r.i64();
  o.upload.max_batch_records = static_cast<std::size_t>(r.u64());
  o.upload.backoff_base.ms = r.i64();
  o.upload.backoff_cap.ms = r.i64();
  o.upload.jitter_frac = r.f64();
  o.upload.drain_grace.ms = r.i64();

  o.upload_faults.upload_loss_prob = r.f64();
  o.upload_faults.ack_loss_prob = r.f64();
  o.upload_faults.base_latency.ms = r.i64();
  o.upload_faults.latency_jitter.ms = r.i64();

  r.value(o.cgn);
  o.cgn_port_block = static_cast<std::uint16_t>(r.u32());
  o.cgn_max_ports_per_home = r.u32();

  if (r.failed()) return Fail(error, "truncated blob");
  if (!r.at_end()) return Fail(error, "trailing bytes (written by a newer build?)");
  *out = o;
  return true;
}

}  // namespace bismark::home
