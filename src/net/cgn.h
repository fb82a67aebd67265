// Carrier-grade NAT (NAT444) — the ISP-side translator in front of homes.
//
// Richter et al. (PAPERS.md) measure that a large share of home deployments
// sit behind a second, carrier-grade NAT. We model the deployment style
// their ISP traces show: deterministic *port-block* allocation (RFC 7422) —
// each subscriber owns a disjoint, statically computable slice of the
// external port range, so logging one block assignment identifies the
// subscriber for any port, and (for us) per-subscriber state is independent
// of every other subscriber, which keeps sharded simulation deterministic
// at any worker count.
//
// Within its slice a subscriber's blocks are activated lazily, ports are
// recycled on idle expiry, and allocation fails — an exhaustion drop — when
// the slice or the per-subscriber port cap is spent. Those drops, and the
// ports-per-subscriber peaks, are what the new analysis summary and the
// CgnEventRecord dataset report. The translation itself is the shared
// PortRestrictedNat (net/translator.h); this tier adds the slices and the
// per-subscriber counters.
#pragma once

#include <algorithm>
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

/// Shape of one CGN instance.
struct CgnConfig {
  Ipv4Address external_address{Ipv4Address(198, 51, 100, 1)};
  std::uint16_t port_range_lo{1024};
  std::uint16_t port_range_hi{65535};
  /// Ports per allocation block (RFC 7422 deterministic NAT block size).
  std::uint16_t port_block_size{512};
  /// Hard cap on concurrently active ports per subscriber (state limit).
  std::uint32_t max_ports_per_subscriber{2048};
  /// Subscribers sharing this CGN; the port range is partitioned evenly
  /// (and disjointly) across them.
  std::uint32_t subscriber_count{64};
  Duration tcp_idle_timeout{Hours(2).ms};
  Duration udp_idle_timeout{Minutes(5).ms};
  Duration icmp_idle_timeout{Seconds(30).ms};
};

/// Per-subscriber accounting — the unit the paper-style analysis wants
/// (ports per home, exhaustion experienced by a home).
struct CgnSubscriberStats {
  std::uint32_t blocks_allocated{0};
  std::uint32_t ports_in_use{0};
  std::uint32_t ports_peak{0};
  std::uint64_t translations_out{0};
  std::uint64_t translations_in{0};
  std::uint64_t exhaustion_drops{0};
  std::uint64_t inbound_drops{0};
};

/// NAT444 translator with deterministic per-subscriber port blocks.
class CgnTable : public PortRestrictedNat<CgnTable> {
 public:
  explicit CgnTable(CgnConfig config);

  /// Total blocks in the external port range.
  [[nodiscard]] std::uint32_t total_blocks() const { return port_range_size() / block_size(); }
  /// Blocks each subscriber's slice holds (disjoint, deterministic).
  [[nodiscard]] std::uint32_t blocks_per_subscriber() const {
    return total_blocks() / static_cast<std::uint32_t>(subscribers_.size());
  }
  /// Largest port_block_size that still leaves every subscriber one block.
  [[nodiscard]] std::uint32_t max_port_block_size() const {
    return port_range_size() / static_cast<std::uint32_t>(subscribers_.size());
  }
  /// First external port of `subscriber`'s slice (the logged block base).
  [[nodiscard]] std::uint16_t slice_base_port(std::uint32_t subscriber) const {
    return static_cast<std::uint16_t>(config_.port_range_lo + subscriber * slice_ports());
  }
  /// Ports a subscriber can ever hold: min(slice, max_ports_per_subscriber).
  [[nodiscard]] std::uint32_t subscriber_port_capacity(std::uint32_t subscriber) const {
    if (subscriber >= subscribers_.size()) return 0;
    return std::min(slice_ports(), config_.max_ports_per_subscriber);
  }

  /// Translate an outbound packet already translated by the home NAT: the
  /// source (home WAN addr + port) becomes the CGN external address and a
  /// port from the subscriber's block slice. Returns false (drop) when the
  /// slice or the per-subscriber cap is exhausted.
  bool translate_outbound(std::uint32_t subscriber, Packet& packet) {
    return subscriber < subscribers_.size() &&
           count_outbound(subscriber, outbound(packet, subscriber));
  }

  /// Inbound: external (addr, port) back to the inside (home WAN) endpoint.
  /// Port-restricted, like the home NAT. Returns false on no mapping.
  bool translate_inbound(Packet& packet) { return count_inbound(inbound(packet)); }

  /// Wire-path variants: edit frame bytes in place with cached deltas.
  bool translate_outbound_wire(std::uint32_t subscriber, std::span<std::byte> frame,
                               TimePoint now) {
    return subscriber < subscribers_.size() &&
           count_outbound(subscriber, outbound_wire(frame, now, MacAddress{}, subscriber));
  }
  bool translate_inbound_wire(std::span<std::byte> frame, TimePoint now) {
    return count_inbound(inbound_wire(frame, now));
  }

  [[nodiscard]] const CgnSubscriberStats& subscriber_stats(std::uint32_t s) const {
    return subscribers_[s].stats;
  }
  [[nodiscard]] const CgnConfig& config() const { return config_; }

 private:
  friend class PortRestrictedNat<CgnTable>;

  struct Subscriber {
    /// Ports recycled by expiry, reused LIFO before fresh cursor advance.
    std::vector<std::uint16_t> free_ports;
    /// Next never-used offset within the slice; crossing a block boundary
    /// lazily "allocates" the next block.
    std::uint32_t cursor{0};
    CgnSubscriberStats stats;
  };

  CgnConfig config_;
  std::vector<Subscriber> subscribers_;

  [[nodiscard]] std::uint32_t port_range_size() const {
    return static_cast<std::uint32_t>(config_.port_range_hi) - config_.port_range_lo + 1;
  }
  [[nodiscard]] std::uint32_t block_size() const {
    return std::max<std::uint32_t>(config_.port_block_size, 1);
  }
  [[nodiscard]] std::uint32_t slice_ports() const { return blocks_per_subscriber() * block_size(); }
  /// The subscriber whose slice holds `port` (RFC 7422: the port alone
  /// identifies it).
  [[nodiscard]] Subscriber& owner_of(std::uint16_t port) {
    return subscribers_[(port - config_.port_range_lo) / slice_ports()];
  }

  std::optional<std::uint16_t> acquire_port(std::uint32_t subscriber, Protocol proto);
  void release_port(const NatMapping& m);
  bool count_outbound(std::uint32_t subscriber, const NatMapping* m) {
    if (m != nullptr) ++subscribers_[subscriber].stats.translations_out;
    return m != nullptr;
  }
  bool count_inbound(const NatMapping* m) {
    if (m != nullptr) ++owner_of(m->wan_port).stats.translations_in;
    return m != nullptr;
  }
};

extern template class PortRestrictedNat<CgnTable>;

}  // namespace bismark::net
