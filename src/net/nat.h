// NAT44 — the technology the paper "peeks behind".
//
// The gateway's NAT rewrites every LAN flow onto the single WAN address, so
// the outside world sees one device where the home has many; the firmware's
// privileged position *behind* the NAT is what makes per-device attribution
// possible at all. The translation itself — per-flow mappings, idle expiry
// with protocol-specific timeouts, the port-restricted inbound check, the
// struct and wire entry points, the counters — is the shared
// PortRestrictedNat (net/translator.h). This tier adds its port policy (one
// round-robin cursor over the range, free ports counted per protocol) and
// hands inbound packets back to the owning device.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/time.h"
#include "net/addr.h"
#include "net/packet.h"
#include "net/translator.h"

namespace bismark::net {

/// Behaviour/configuration knobs for the translator.
struct NatConfig {
  Ipv4Address wan_address{Ipv4Address(203, 0, 113, 1)};
  std::uint16_t port_range_lo{1024};
  std::uint16_t port_range_hi{65535};
  Duration tcp_idle_timeout{Hours(2).ms};   // conservative conntrack-style default
  Duration udp_idle_timeout{Minutes(5).ms};
  Duration icmp_idle_timeout{Seconds(30).ms};
};

/// Port-restricted cone NAT44.
class NatTable : public PortRestrictedNat<NatTable> {
 public:
  explicit NatTable(NatConfig config);

  /// Translate an outbound (LAN→WAN) packet in place: the source becomes
  /// the WAN address and an allocated port. Creates a mapping on the first
  /// packet of a flow. Returns false (drop) on port exhaustion.
  bool translate_outbound(Packet& packet) { return outbound(packet, 0) != nullptr; }

  /// Translate an inbound (WAN→LAN) packet in place: the destination
  /// (WAN addr + port) is rewritten back to the owning LAN endpoint, and
  /// `lan_mac` is restored for attribution. Returns false for packets with
  /// no matching mapping (unsolicited inbound — dropped, as a NAT does).
  bool translate_inbound(Packet& packet) {
    const NatMapping* m = inbound(packet);
    if (m != nullptr) packet.lan_mac = m->device_mac;
    return m != nullptr;
  }

  /// Wire-path outbound translation: edit an Ethernet frame's bytes in
  /// place (source address/port + incremental IP/L4 checksum updates).
  /// `lan_mac` attributes a newly created mapping to its device. Returns
  /// false on malformed frames or port exhaustion.
  bool translate_outbound_wire(std::span<std::byte> frame, TimePoint now, MacAddress lan_mac) {
    return outbound_wire(frame, now, lan_mac, 0) != nullptr;
  }

  /// Wire-path inbound translation: destination rewrite back to the LAN
  /// endpoint with the same cached-delta arithmetic.
  bool translate_inbound_wire(std::span<std::byte> frame, TimePoint now) {
    return inbound_wire(frame, now) != nullptr;
  }

  /// Lookup the device owning an active WAN port (e.g. for diagnostics).
  [[nodiscard]] std::optional<MacAddress> owner_of_port(std::uint16_t wan_port,
                                                        Protocol proto) const;

  [[nodiscard]] const NatConfig& config() const { return config_; }

  /// Snapshot of current mappings, sorted by LAN five-tuple. The backing
  /// tables are hash maps, so determinism comes from sorting here, not
  /// from iteration order.
  [[nodiscard]] std::vector<NatMapping> snapshot() const;

 private:
  friend class PortRestrictedNat<NatTable>;

  NatConfig config_;
  std::uint16_t next_port_;
  /// Active allocations per protocol — makes full-range exhaustion an O(1)
  /// check instead of a 64k-probe scan on every packet.
  std::array<std::uint32_t, 3> ports_in_use_{};

  /// The next free port for `proto` at or after the round-robin cursor,
  /// which all protocols share. A NAT44 serves one subscriber (the home).
  std::optional<std::uint16_t> acquire_port(std::uint32_t subscriber, Protocol proto);
  void release_port(const NatMapping& m) { --ports_in_use_[ProtoIndex(m.lan_tuple.protocol)]; }
};

extern template class PortRestrictedNat<NatTable>;

}  // namespace bismark::net
