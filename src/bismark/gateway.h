// The BISmark gateway: the router firmware's data path and passive monitor.
//
// Sits where the paper's WNDR3800 sits — between the access link and the
// home LAN — and is therefore the one vantage point that sees per-device
// traffic *before* the NAT collapses it onto a single address. Implements
// traffic::TrafficSink: every generated DNS answer, flow and burst passes
// through here, gets NAT-translated, metered and (under consent)
// anonymised into the Traffic data set.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "bismark/anonymize.h"
#include "bismark/meter.h"
#include "bismark/usage_cap.h"
#include "collect/repository.h"
#include "net/access_link.h"
#include "net/cgn.h"
#include "net/dhcp.h"
#include "net/nat.h"
#include "net/pcap.h"
#include "traffic/generator.h"

namespace bismark::gateway {

/// Where this home sits in the ISP's NAT444 topology. When enabled, every
/// outbound packet is translated twice — home NAT, then the carrier-grade
/// tier — through the byte-level wire path (DESIGN §13).
struct CgnPlacement {
  bool enabled{false};
  net::CgnConfig config;
  /// This home's subscriber slot on its CGN (owns a disjoint port slice).
  std::uint32_t subscriber_index{0};
  /// Which CGN instance serves the home (reported in CgnEventRecord).
  int cgn_id{0};
};

struct GatewayConfig {
  collect::HomeId home;
  ConsentLevel consent{ConsentLevel::kBasic};
  net::NatConfig nat;
  CgnPlacement cgn;
  net::Ipv4Cidr lan_prefix{net::Ipv4Address(192, 168, 1, 0), 24};
  /// NAT conntrack GC cadence.
  Duration nat_gc_interval{Minutes(10).ms};
};

/// Per-device traffic totals the gateway accumulates (Figs 12/17/20).
struct DeviceUsage {
  net::MacAddress mac;  // original; anonymised on export
  Bytes bytes_total;
  std::uint64_t flows{0};
};

class Gateway final : public traffic::TrafficSink {
 public:
  Gateway(GatewayConfig config, net::AccessLink& link, const Anonymizer& anonymizer,
          collect::RecordSink* sink);

  // --- LAN-side plumbing ---
  net::DhcpPool& dhcp() { return dhcp_; }
  net::NatTable& nat() { return nat_; }
  [[nodiscard]] const net::AccessLink& link() const { return link_; }

  // --- traffic::TrafficSink ---
  void on_dns(const net::DnsResponse& response, net::MacAddress device,
              TimePoint now) override;
  void on_flow_open(const traffic::FlowOpen& open) override;
  void on_chunk(const traffic::FlowChunk& chunk) override;
  void on_flow_close(const net::FlowRecord& record) override;
  double admit_rate(net::Direction dir, double demand_bps) override;
  void add_rate(net::Direction dir, double bps, TimePoint now) override;
  void remove_rate(net::Direction dir, double bps, TimePoint now) override;

  /// Flush meters and per-device usage into the record sink (end of study).
  void finalize(TimePoint now);

  /// Attach the uCap usage manager (Section 3.2.2's cap-management Web
  /// interface). Once attached, every closed flow is charged to its device.
  /// The gateway does not own the manager.
  void attach_usage_caps(UsageCapManager* caps) { caps_ = caps; }
  [[nodiscard]] UsageCapManager* usage_caps() const { return caps_; }

  /// Attach a WAN-egress capture buffer (the deployment's per-shard pcap
  /// staging). While attached — or whenever a CGN tier is configured —
  /// outbound packets travel the byte-level wire path: encoded once as a
  /// real Ethernet frame, then translated in place by incremental checksum
  /// rewrites. Pass nullptr to detach. Not owned.
  void attach_pcap(net::PcapBuffer* buf) { pcap_ = buf; }

  /// The carrier-grade tier in front of this home, or nullptr (NAT44 only).
  [[nodiscard]] net::CgnTable* cgn() { return cgn_.get(); }

  [[nodiscard]] const std::map<net::MacAddress, DeviceUsage>& device_usage() const {
    return usage_;
  }
  [[nodiscard]] const GatewayConfig& config() const { return config_; }

 private:
  GatewayConfig config_;
  net::AccessLink& link_;
  const Anonymizer& anonymizer_;
  collect::RecordSink* repo_;  // may be null (standalone examples)

  net::NatTable nat_;
  std::unique_ptr<net::CgnTable> cgn_;  // non-null iff config.cgn.enabled
  net::PcapBuffer* pcap_{nullptr};
  net::MacAddress wan_mac_;  // the gateway's WAN-side source MAC
  net::MacAddress isp_mac_;  // next-hop (ISP edge) MAC on captured frames
  net::DhcpPool dhcp_;
  ThroughputMeter meter_;
  UsageCapManager* caps_{nullptr};
  std::map<net::MacAddress, DeviceUsage> usage_;
  // Open-flow conntrack as parallel arrays sorted by flow id (SoA). Flow
  // ids mint monotonically, so inserts are almost always appends; the
  // table holds tens of concurrently-open flows, making the flat layout
  // both smaller and faster than a node-based map at fleet scale.
  std::vector<net::FlowId> open_flow_ids_;
  std::vector<net::FiveTuple> open_flow_tuples_;
  [[nodiscard]] std::size_t find_open_flow(net::FlowId id) const;
  TimePoint last_nat_gc_{};
  // The meter sees *shaped* rates: downstream is policed by the ISP before
  // it reaches the gateway; upstream demand beyond capacity only shows up
  // at the gateway when a deep modem buffer absorbs it (bufferbloat homes).
  double meter_view_up_{0.0};
  double meter_view_down_{0.0};
  void sync_meter(net::Direction dir, TimePoint now);

  [[nodiscard]] bool traffic_consented() const {
    return config_.consent == ConsentLevel::kFullTraffic;
  }
  void maybe_gc_nat(TimePoint now);
  /// Outbound translation dispatch: the struct fast path when no CGN/pcap
  /// is configured, else the byte-level wire path (encode → NAT rewrite →
  /// CGN rewrite → capture). Returns false when the packet is dropped.
  bool process_outbound(net::Packet& pkt);
};

}  // namespace bismark::gateway
