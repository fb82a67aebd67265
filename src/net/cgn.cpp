#include "net/cgn.h"

namespace bismark::net {

template class PortRestrictedNat<CgnTable>;

CgnTable::CgnTable(CgnConfig config)
    : PortRestrictedNat(config.external_address, config.tcp_idle_timeout,
                        config.udp_idle_timeout, config.icmp_idle_timeout),
      config_(config) {
  subscribers_.resize(std::max<std::uint32_t>(config_.subscriber_count, 1));
}

std::optional<std::uint16_t> CgnTable::acquire_port(std::uint32_t subscriber, Protocol) {
  Subscriber& sub = subscribers_[subscriber];
  // Every port the cursor has handed out is in use or on the free list, so
  // a subscriber under its capacity (never more than its slice) has a
  // recycled port or an unused offset left.
  if (sub.stats.ports_in_use >= subscriber_port_capacity(subscriber)) {
    ++sub.stats.exhaustion_drops;  // state limit / slice spent
    return std::nullopt;
  }
  std::uint16_t port = 0;
  if (!sub.free_ports.empty()) {
    // Recycle an expired port from an already-activated block.
    port = sub.free_ports.back();
    sub.free_ports.pop_back();
  } else {
    // Advance the never-used cursor; crossing a block-size boundary is the
    // moment a new block of the slice goes live.
    if (sub.cursor % block_size() == 0) ++sub.stats.blocks_allocated;
    port = static_cast<std::uint16_t>(slice_base_port(subscriber) + sub.cursor);
    ++sub.cursor;
  }
  ++sub.stats.ports_in_use;
  sub.stats.ports_peak = std::max(sub.stats.ports_peak, sub.stats.ports_in_use);
  return port;
}

void CgnTable::release_port(const NatMapping& m) {
  Subscriber& sub = owner_of(m.wan_port);
  sub.free_ports.push_back(m.wan_port);
  --sub.stats.ports_in_use;
}

}  // namespace bismark::net
