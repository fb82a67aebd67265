// Port-restricted cone translation, written once for both NAT tiers.
//
// The home gateway's NAT44 (net/nat.h) and the ISP's carrier-grade NAT444
// tier (net/cgn.h) are the same translator: one mapping per inside
// five-tuple, each holding one external (port, protocol); outbound packets
// find or create their mapping, inbound packets pass only from the remote
// endpoint their mapping was created toward, and idle mappings expire after
// a per-protocol timeout. Two entry points share one table: the struct path
// rewrites a Packet's tuple, and the wire path edits a real Ethernet frame
// in place — fixed-offset tuple extraction, hash lookup, then an 8-byte
// rewrite plus two incremental checksum updates using deltas cached on the
// mapping when it was created (the fast-path header cache).
//
// The tiers differ only in how an external port is picked and returned.
// Each derives from PortRestrictedNat<Tier> and supplies
//   std::optional<std::uint16_t> acquire_port(std::uint32_t subscriber, Protocol proto);
//   void release_port(const NatMapping& mapping);
// which the table calls when it creates and expires a mapping. The calls
// resolve at compile time: no virtual call on the packet path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>

#include "core/time.h"
#include "net/addr.h"
#include "net/packet.h"
#include "net/wire.h"

namespace bismark::net {

/// One active translation entry. The two SourceRewrite caches are computed
/// once at mapping creation so per-packet byte translation never touches
/// checksum arithmetic beyond one fold.
struct NatMapping {
  FiveTuple lan_tuple;        // inside five-tuple (at the CGN: the home's WAN side)
  std::uint16_t wan_port{0};  // allocated external source port
  MacAddress device_mac;      // LAN device owning the flow (the NAT44 restores it inbound)
  TimePoint last_activity;
  wire::SourceRewrite out_rewrite;  // inside src -> (external addr, wan_port)
  wire::SourceRewrite in_rewrite;   // (external addr, wan_port) -> inside src
};

/// Counters both tiers keep, exposed for tests, benchmarks and analysis.
struct NatStats {
  std::uint64_t translations_out{0};
  std::uint64_t translations_in{0};
  std::uint64_t mappings_created{0};
  std::uint64_t mappings_expired{0};
  std::uint64_t port_exhaustion_drops{0};
  std::uint64_t unknown_inbound_drops{0};
  [[nodiscard]] std::uint64_t active() const { return mappings_created - mappings_expired; }
};

/// Index for per-protocol state: tcp, udp, icmp.
[[nodiscard]] constexpr std::size_t ProtoIndex(Protocol p) {
  switch (p) {
    case Protocol::kTcp: return 0;
    case Protocol::kUdp: return 1;
    case Protocol::kIcmp: return 2;
  }
  return 1;
}

template <class Tier>
class PortRestrictedNat {
 public:
  /// Expire mappings idle for longer than their protocol's timeout as of
  /// `now`, handing each freed port back to the tier. Returns how many
  /// were removed.
  std::size_t expire_idle(TimePoint now);

  [[nodiscard]] const NatStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t active_mappings() const { return by_inside_.size(); }

 protected:
  PortRestrictedNat(Ipv4Address external, Duration tcp_idle, Duration udp_idle,
                    Duration icmp_idle)
      : external_(external), idle_timeouts_{tcp_idle, udp_idle, icmp_idle} {}

  // The translation bodies. Each returns the mapping the packet used, or
  // nullptr when it is dropped: outbound on port exhaustion (counted) or a
  // malformed frame, inbound when no mapping accepts it (counted as an
  // unknown inbound drop). `subscriber` is passed through to acquire_port.

  /// Source becomes (external address, mapped port); the first packet of
  /// a flow creates the mapping, attributed to `packet.lan_mac`.
  NatMapping* outbound(Packet& packet, std::uint32_t subscriber);
  NatMapping* outbound_wire(std::span<std::byte> frame, TimePoint now, MacAddress lan_mac,
                            std::uint32_t subscriber);
  /// Destination (external address, mapped port) goes back to the inside
  /// endpoint.
  NatMapping* inbound(Packet& packet);
  NatMapping* inbound_wire(std::span<std::byte> frame, TimePoint now);

  [[nodiscard]] bool external_in_use(std::uint16_t port, Protocol proto) const {
    return by_external_.contains(ExternalKey{port, proto});
  }
  /// The mapping holding external (port, proto), or nullptr.
  [[nodiscard]] const NatMapping* find_external(std::uint16_t port, Protocol proto) const;
  [[nodiscard]] const std::unordered_map<FiveTuple, NatMapping, FiveTupleHash>& mappings()
      const {
    return by_inside_;
  }

 private:
  struct ExternalKey {
    std::uint16_t port;
    Protocol proto;
    auto operator<=>(const ExternalKey&) const = default;
  };
  struct ExternalKeyHash {
    [[nodiscard]] std::size_t operator()(const ExternalKey& k) const noexcept {
      return static_cast<std::size_t>(HashMix64(
          static_cast<std::uint64_t>(k.port) << 8 | static_cast<std::uint64_t>(k.proto)));
    }
  };

  Ipv4Address external_;
  std::array<Duration, 3> idle_timeouts_;  // by ProtoIndex
  std::unordered_map<FiveTuple, NatMapping, FiveTupleHash> by_inside_;
  std::unordered_map<ExternalKey, FiveTuple, ExternalKeyHash> by_external_;
  NatStats stats_;

  /// Find-or-create the mapping for an outbound tuple; nullptr on
  /// exhaustion (the drop counter is bumped here, once per attempt).
  NatMapping* outbound_mapping(const FiveTuple& tuple, TimePoint now, MacAddress lan_mac,
                               std::uint32_t subscriber);
  /// Inbound lookup + port-restricted check, counting the drop on no match.
  NatMapping* inbound_mapping(const FiveTuple& tuple, TimePoint now);
};

template <class Tier>
NatMapping* PortRestrictedNat<Tier>::outbound_mapping(const FiveTuple& tuple, TimePoint now,
                                                      MacAddress lan_mac,
                                                      std::uint32_t subscriber) {
  auto it = by_inside_.find(tuple);
  if (it == by_inside_.end()) {
    const auto port = static_cast<Tier*>(this)->acquire_port(subscriber, tuple.protocol);
    if (!port) {
      ++stats_.port_exhaustion_drops;
      return nullptr;
    }
    NatMapping mapping;
    mapping.lan_tuple = tuple;
    mapping.wan_port = *port;
    mapping.device_mac = lan_mac;
    mapping.last_activity = now;
    mapping.out_rewrite =
        wire::SourceRewrite::Make(tuple.src_ip, tuple.src_port, external_, *port);
    mapping.in_rewrite =
        wire::SourceRewrite::Make(external_, *port, tuple.src_ip, tuple.src_port);
    it = by_inside_.emplace(tuple, mapping).first;
    by_external_.emplace(ExternalKey{*port, tuple.protocol}, tuple);
    ++stats_.mappings_created;
  }
  NatMapping& m = it->second;
  m.last_activity = now;
  return &m;
}

template <class Tier>
NatMapping* PortRestrictedNat<Tier>::inbound_mapping(const FiveTuple& tuple, TimePoint now) {
  NatMapping* m = nullptr;
  if (tuple.dst_ip == external_) {
    const auto ext_it = by_external_.find(ExternalKey{tuple.dst_port, tuple.protocol});
    if (ext_it != by_external_.end()) {
      const auto in_it = by_inside_.find(ext_it->second);
      if (in_it != by_inside_.end()) m = &in_it->second;
    }
  }
  // Port-restricted cone: only the remote endpoint the mapping was created
  // toward may send back through it.
  if (m == nullptr || tuple.src_ip != m->lan_tuple.dst_ip ||
      tuple.src_port != m->lan_tuple.dst_port) {
    ++stats_.unknown_inbound_drops;
    return nullptr;
  }
  m->last_activity = now;
  ++stats_.translations_in;
  return m;
}

template <class Tier>
NatMapping* PortRestrictedNat<Tier>::outbound(Packet& packet, std::uint32_t subscriber) {
  NatMapping* m = outbound_mapping(packet.tuple, packet.timestamp, packet.lan_mac, subscriber);
  if (m == nullptr) return nullptr;
  packet.tuple.src_ip = external_;
  packet.tuple.src_port = m->wan_port;
  ++stats_.translations_out;
  return m;
}

template <class Tier>
NatMapping* PortRestrictedNat<Tier>::outbound_wire(std::span<std::byte> frame, TimePoint now,
                                                   MacAddress lan_mac,
                                                   std::uint32_t subscriber) {
  const auto tuple = wire::ExtractTuple(frame);
  if (!tuple) return nullptr;
  NatMapping* m = outbound_mapping(*tuple, now, lan_mac, subscriber);
  if (m == nullptr) return nullptr;
  wire::ApplySourceRewrite(frame, m->out_rewrite);
  ++stats_.translations_out;
  return m;
}

template <class Tier>
NatMapping* PortRestrictedNat<Tier>::inbound(Packet& packet) {
  NatMapping* m = inbound_mapping(packet.tuple, packet.timestamp);
  if (m == nullptr) return nullptr;
  packet.tuple.dst_ip = m->lan_tuple.src_ip;
  packet.tuple.dst_port = m->lan_tuple.src_port;
  return m;
}

template <class Tier>
NatMapping* PortRestrictedNat<Tier>::inbound_wire(std::span<std::byte> frame, TimePoint now) {
  const auto tuple = wire::ExtractTuple(frame);
  if (!tuple) {
    ++stats_.unknown_inbound_drops;
    return nullptr;
  }
  NatMapping* m = inbound_mapping(*tuple, now);
  if (m != nullptr) wire::ApplyDestRewrite(frame, m->in_rewrite);
  return m;
}

template <class Tier>
std::size_t PortRestrictedNat<Tier>::expire_idle(TimePoint now) {
  std::size_t removed = 0;
  for (auto it = by_inside_.begin(); it != by_inside_.end();) {
    const NatMapping& m = it->second;
    if (now - m.last_activity > idle_timeouts_[ProtoIndex(m.lan_tuple.protocol)]) {
      by_external_.erase(ExternalKey{m.wan_port, m.lan_tuple.protocol});
      static_cast<Tier*>(this)->release_port(m);
      it = by_inside_.erase(it);
      ++removed;
      ++stats_.mappings_expired;
    } else {
      ++it;
    }
  }
  return removed;
}

template <class Tier>
const NatMapping* PortRestrictedNat<Tier>::find_external(std::uint16_t port,
                                                         Protocol proto) const {
  const auto ext_it = by_external_.find(ExternalKey{port, proto});
  if (ext_it == by_external_.end()) return nullptr;
  const auto in_it = by_inside_.find(ext_it->second);
  return in_it == by_inside_.end() ? nullptr : &in_it->second;
}

}  // namespace bismark::net
