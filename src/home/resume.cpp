#include "home/resume.h"

#include "collect/binio.h"

namespace bismark::home {

namespace {

constexpr char kBlobMagic[4] = {'B', 'S', 'O', 'P'};
// v2: appended the NAT444 knobs (cgn, cgn_port_block,
// cgn_max_ports_per_home) — they shape the CgnEventRecord stream, so a
// resumed run must pin them. pcap_out stays out of the blob: it is an
// output destination, not record content (and resume rejects it anyway).
// v3: dropped the upload path's base latency and jitter, which no
// simulation code read; a v2 directory fails closed on --resume.
constexpr std::uint32_t kBlobVersion = 3;

bool Fail(std::string* error, const std::string& reason) {
  if (error) *error = "resume options: " + reason;
  return false;
}

/// The blob's one field list, after the magic and version: EncodeResumableOptions
/// writes through it and DecodeResumableOptions reads through it.
template <typename Io, typename Options>
void OptionFields(Io& io, Options& o) {
  io.value(o.seed);
  io.value(o.fault_seed);

  collect::WindowFields(io, o.windows);

  io.value(o.heartbeat.period);
  io.value(o.heartbeat.loss_prob);
  io.value(o.heartbeat.downtime_threshold);

  io.value(o.traffic_homes);
  io.value(o.bufferbloat_homes);
  io.value(o.run_traffic);
  io.value(o.roster_scale);
  io.value(o.homes);
  io.value(o.churn_homes);

  io.value(o.collector_outages_per_month);
  io.value(o.collector_outage_mean);

  io.template value_as<std::uint64_t>(o.upload.spool_capacity);
  io.value(o.upload.flush_period);
  io.template value_as<std::uint64_t>(o.upload.max_batch_records);
  io.value(o.upload.backoff_base);
  io.value(o.upload.backoff_cap);
  io.value(o.upload.jitter_frac);
  io.value(o.upload.drain_grace);

  io.value(o.upload_faults.upload_loss_prob);
  io.value(o.upload_faults.ack_loss_prob);

  io.value(o.cgn);
  io.template value_as<std::uint32_t>(o.cgn_port_block);
  io.value(o.cgn_max_ports_per_home);
}

}  // namespace

std::string EncodeResumableOptions(const DeploymentOptions& o) {
  collect::BinWriter w;
  w.raw(kBlobMagic, sizeof(kBlobMagic));
  w.u32(kBlobVersion);
  OptionFields(w, o);
  return w.buffer();
}

bool DecodeResumableOptions(const std::string& blob, DeploymentOptions* out,
                            std::string* error) {
  collect::BinReader r(blob.data(), blob.size());
  if (!r.magic(kBlobMagic)) return Fail(error, "bad magic (not an options blob)");
  const std::uint32_t version = r.u32();
  if (version != kBlobVersion) {
    return Fail(error, "unsupported blob version " + std::to_string(version));
  }
  DeploymentOptions o;
  OptionFields(r, o);
  if (r.failed()) return Fail(error, "truncated blob");
  if (!r.at_end()) return Fail(error, "trailing bytes (written by a newer build?)");
  *out = o;
  return true;
}

}  // namespace bismark::home
