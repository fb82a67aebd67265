#include "net/nat.h"

#include <algorithm>

namespace bismark::net {

template class PortRestrictedNat<NatTable>;

NatTable::NatTable(NatConfig config)
    : PortRestrictedNat(config.wan_address, config.tcp_idle_timeout, config.udp_idle_timeout,
                        config.icmp_idle_timeout),
      config_(config),
      next_port_(config.port_range_lo) {}

std::optional<std::uint16_t> NatTable::acquire_port(std::uint32_t, Protocol proto) {
  // O(1) exhaustion check: when every port in the range is active for this
  // protocol, fail immediately instead of probing the whole range per
  // packet (the pre-fix behaviour scanned all 64k candidates on every
  // translate attempt once the table filled).
  const std::uint32_t range =
      static_cast<std::uint32_t>(config_.port_range_hi) - config_.port_range_lo + 1;
  if (ports_in_use_[ProtoIndex(proto)] >= range) return std::nullopt;
  // A free port exists, so the probe terminates; the counter above bounds
  // the scan to the exhaustion-free case.
  for (;;) {
    const std::uint16_t candidate = next_port_;
    next_port_ = next_port_ >= config_.port_range_hi ? config_.port_range_lo
                                                     : static_cast<std::uint16_t>(next_port_ + 1);
    if (!external_in_use(candidate, proto)) {
      ++ports_in_use_[ProtoIndex(proto)];
      return candidate;
    }
  }
}

std::optional<MacAddress> NatTable::owner_of_port(std::uint16_t wan_port, Protocol proto) const {
  const NatMapping* m = find_external(wan_port, proto);
  if (m == nullptr) return std::nullopt;
  return m->device_mac;
}

std::vector<NatMapping> NatTable::snapshot() const {
  std::vector<NatMapping> out;
  out.reserve(mappings().size());
  for (const auto& [tuple, mapping] : mappings()) out.push_back(mapping);
  std::sort(out.begin(), out.end(), [](const NatMapping& a, const NatMapping& b) {
    return a.lan_tuple < b.lan_tuple;
  });
  return out;
}

}  // namespace bismark::net
