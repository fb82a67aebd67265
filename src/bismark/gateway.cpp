#include "bismark/gateway.h"

#include <algorithm>
#include <array>
#include <span>

#include "net/wire.h"

namespace bismark::gateway {

Gateway::Gateway(GatewayConfig config, net::AccessLink& link, const Anonymizer& anonymizer,
                 collect::RecordSink* sink)
    : config_(config),
      link_(link),
      anonymizer_(anonymizer),
      repo_(sink),
      nat_(config.nat),
      cgn_(config.cgn.enabled ? std::make_unique<net::CgnTable>(config.cgn.config) : nullptr),
      // Locally-administered MACs, deterministic per home / per CGN: these
      // appear in pcap frames, never in exported datasets.
      wan_mac_(net::MacAddress::FromParts(0x02b15a,
                                          static_cast<std::uint32_t>(config.home.value))),
      isp_mac_(net::MacAddress::FromParts(0x02157e,
                                          static_cast<std::uint32_t>(config.cgn.cgn_id))),
      dhcp_(config.lan_prefix, config.lan_prefix.host(1)),
      meter_(config.home, [this](const collect::ThroughputMinute& m) {
        if (repo_ && traffic_consented()) repo_->add_throughput_minute(m);
      }) {}

void Gateway::on_dns(const net::DnsResponse& response, net::MacAddress device, TimePoint now) {
  if (!repo_ || !traffic_consented()) return;
  collect::DnsLogRecord rec;
  rec.home = config_.home;
  rec.when = now;
  rec.device_mac = anonymizer_.anonymize_mac(device);
  rec.query = anonymizer_.anonymize_domain(response.query);
  rec.anonymized = Anonymizer::IsAnonToken(rec.query);
  for (const auto& r : response.records) {
    if (r.type == net::DnsRecordType::kA) {
      ++rec.a_records;
    } else {
      ++rec.cname_records;
    }
  }
  repo_->add_dns(std::move(rec));
}

bool Gateway::process_outbound(net::Packet& pkt) {
  if (cgn_ == nullptr && pcap_ == nullptr) {
    // Struct fast path — byte-identical behaviour to the pre-wire gateway.
    return nat_.translate_outbound(pkt);
  }
  // Wire path: the packet becomes a real Ethernet frame once, and both NAT
  // tiers translate it by editing bytes (cached-delta checksum updates).
  std::array<std::byte, net::wire::kMaxFrameBytes> buf;
  const std::size_t len = net::wire::EncodeFrame(pkt, wan_mac_, isp_mac_, buf);
  const std::span<std::byte> frame(buf.data(), len);
  if (!nat_.translate_outbound_wire(frame, pkt.timestamp, pkt.lan_mac)) return false;
  if (cgn_ != nullptr &&
      !cgn_->translate_outbound_wire(config_.cgn.subscriber_index, frame, pkt.timestamp)) {
    return false;  // CGN port exhaustion: the packet never reaches the WAN
  }
  if (pcap_ != nullptr) pcap_->capture(pkt.timestamp, config_.home.value, frame);
  return true;
}

void Gateway::on_flow_open(const traffic::FlowOpen& open) {
  // Push the first packet of the flow through the NAT so a WAN mapping
  // exists for the whole transfer — the same path a real SYN takes.
  net::Packet syn;
  syn.timestamp = open.opened;
  syn.tuple = open.lan_tuple;
  syn.size = B(64);
  syn.direction = net::Direction::kUpstream;
  syn.lan_mac = open.device_mac;
  process_outbound(syn);
  const auto it = std::lower_bound(open_flow_ids_.begin(), open_flow_ids_.end(), open.id);
  if (it != open_flow_ids_.end() && *it == open.id) {
    open_flow_tuples_[static_cast<std::size_t>(it - open_flow_ids_.begin())] = open.lan_tuple;
  } else {
    const auto pos = it - open_flow_ids_.begin();
    open_flow_ids_.insert(it, open.id);
    open_flow_tuples_.insert(open_flow_tuples_.begin() + pos, open.lan_tuple);
  }
  maybe_gc_nat(open.opened);
}

std::size_t Gateway::find_open_flow(net::FlowId id) const {
  const auto it = std::lower_bound(open_flow_ids_.begin(), open_flow_ids_.end(), id);
  if (it == open_flow_ids_.end() || !(*it == id)) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - open_flow_ids_.begin());
}

void Gateway::on_chunk(const traffic::FlowChunk& chunk) {
  // Keep the conntrack entry warm, as continuing packets would.
  const std::size_t pos = find_open_flow(chunk.id);
  if (pos != static_cast<std::size_t>(-1)) {
    net::Packet pkt;
    pkt.timestamp = chunk.start;
    pkt.tuple = open_flow_tuples_[pos];
    pkt.size = B(1500);
    pkt.direction = net::Direction::kUpstream;
    process_outbound(pkt);
  }
}

void Gateway::on_flow_close(const net::FlowRecord& record) {
  if (const std::size_t pos = find_open_flow(record.id); pos != static_cast<std::size_t>(-1)) {
    open_flow_ids_.erase(open_flow_ids_.begin() + static_cast<std::ptrdiff_t>(pos));
    open_flow_tuples_.erase(open_flow_tuples_.begin() + static_cast<std::ptrdiff_t>(pos));
  }

  // Per-device accounting feeds Figs 12/17/20 regardless of consent; it
  // leaves the home only in anonymised, aggregate form.
  auto& usage = usage_[record.device_mac];
  usage.mac = record.device_mac;
  usage.bytes_total += record.total_bytes();
  ++usage.flows;
  if (caps_) caps_->record(record.device_mac, record.total_bytes(), record.last_packet);

  if (!repo_ || !traffic_consented()) return;
  collect::TrafficFlowRecord rec;
  rec.home = config_.home;
  rec.flow = record.id;
  rec.first_packet = record.first_packet;
  rec.last_packet = record.last_packet;
  rec.protocol = record.tuple.protocol;
  rec.dst_port = record.tuple.dst_port;
  rec.device_mac = anonymizer_.anonymize_mac(record.device_mac);
  rec.bytes_up = record.bytes_up;
  rec.bytes_down = record.bytes_down;
  rec.packets_up = record.packets_up;
  rec.packets_down = record.packets_down;
  rec.domain = anonymizer_.anonymize_domain(record.domain);
  rec.domain_anonymized = Anonymizer::IsAnonToken(rec.domain);
  repo_->add_flow(std::move(rec));
}

double Gateway::admit_rate(net::Direction dir, double demand_bps) {
  return link_.admit(dir, demand_bps);
}

void Gateway::sync_meter(net::Direction dir, TimePoint now) {
  const double raw = link_.active_rate(dir);
  double cap = link_.capacity(dir).bps;
  if (dir == net::Direction::kUpstream && link_.config().allow_uplink_overdrive) {
    cap *= 1.0 + link_.config().overdrive_headroom;
  }
  const double clamped = std::min(raw, cap);
  double& view = dir == net::Direction::kUpstream ? meter_view_up_ : meter_view_down_;
  const double delta = clamped - view;
  if (delta > 0.0) {
    meter_.add_rate(dir, delta, now);
  } else if (delta < 0.0) {
    meter_.remove_rate(dir, -delta, now);
  }
  view = clamped;
}

void Gateway::add_rate(net::Direction dir, double bps, TimePoint now) {
  link_.add_rate(dir, bps, now);
  sync_meter(dir, now);
}

void Gateway::remove_rate(net::Direction dir, double bps, TimePoint now) {
  link_.remove_rate(dir, bps, now);
  sync_meter(dir, now);
}

void Gateway::maybe_gc_nat(TimePoint now) {
  if ((now - last_nat_gc_) >= config_.nat_gc_interval) {
    nat_.expire_idle(now);
    if (cgn_) cgn_->expire_idle(now);
    last_nat_gc_ = now;
  }
}

void Gateway::finalize(TimePoint now) {
  meter_.advance_to(now);
  if (!repo_) return;
  for (const auto& [mac, usage] : usage_) {
    collect::DeviceTrafficRecord rec;
    rec.home = config_.home;
    rec.device_mac = anonymizer_.anonymize_mac(mac);
    rec.vendor = net::OuiRegistry::Instance().classify(mac);
    rec.bytes_total = usage.bytes_total;
    rec.flows = usage.flows;
    repo_->add_device_traffic(rec);
  }
  // One CGN accounting row per home that actually touched its CGN; homes
  // with no CGN (or no traffic through it) contribute nothing, so CGN-off
  // runs keep every export stream byte-identical.
  if (cgn_ != nullptr) {
    const std::uint32_t sub = config_.cgn.subscriber_index;
    const net::CgnSubscriberStats& ss = cgn_->subscriber_stats(sub);
    if (ss.translations_out + ss.translations_in + ss.exhaustion_drops + ss.inbound_drops >
        0) {
      collect::CgnEventRecord rec;
      rec.home = config_.home;
      rec.when = now;
      rec.cgn_id = config_.cgn.cgn_id;
      rec.port_block = cgn_->slice_base_port(sub);
      rec.port_block_size = cgn_->config().port_block_size;
      rec.port_blocks_allocated = ss.blocks_allocated;
      rec.ports_peak = ss.ports_peak;
      rec.port_capacity = cgn_->subscriber_port_capacity(sub);
      rec.translations_out = ss.translations_out;
      rec.translations_in = ss.translations_in;
      rec.exhaustion_drops = ss.exhaustion_drops;
      rec.inbound_drops = ss.inbound_drops;
      repo_->add_cgn_event(rec);
    }
  }
}

}  // namespace bismark::gateway
