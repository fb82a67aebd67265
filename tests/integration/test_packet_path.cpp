// Packet-plumbing integration: DHCP lease -> DNS -> NAT translation ->
// reply attribution for wired and wireless devices at once — the
// per-packet path the bulk simulation abstracts into chunks.
#include <gtest/gtest.h>

#include "bismark/gateway.h"
#include "traffic/device_types.h"

namespace bismark {
namespace {

using namespace bismark::net;
using namespace bismark::gateway;

const TimePoint t0 = MakeTime({2013, 4, 1}, 20, 0, 0);

class PacketPathTest : public ::testing::Test {
 protected:
  PacketPathTest()
      : catalog_(traffic::DomainCatalog::BuildStandard()),
        anonymizer_(catalog_, {}),
        link_(AccessLinkConfig{Mbps(20), Mbps(4)}),
        gateway_([this] {
          GatewayConfig cfg;
          cfg.home = collect::HomeId{1};
          return cfg;
        }(), link_, anonymizer_, nullptr) {
    catalog_.install_zones(zones_);
  }

  traffic::DomainCatalog catalog_;
  ZoneCatalog zones_;
  Anonymizer anonymizer_;
  AccessLink link_;
  Gateway gateway_;
};

TEST_F(PacketPathTest, WirelessDeviceFullRoundTrip) {
  // 1. A phone gets a DHCP lease from the router's LAN pool.
  const MacAddress phone = MacAddress::FromParts(0x38AA3C, 0x1234);
  const auto lease = gateway_.dhcp().acquire(phone, t0);
  ASSERT_TRUE(lease.has_value());
  ASSERT_TRUE(lease->address.is_private());
  EXPECT_EQ(gateway_.dhcp().gateway(), Ipv4Address(192, 168, 1, 1));

  // 2. It resolves a domain through the home's DNS path.
  DnsResolver resolver(zones_);
  const DnsResponse response = resolver.resolve("facebook.com", t0);
  ASSERT_FALSE(response.nxdomain);
  const Ipv4Address remote = *response.address();

  // 3. The first packet is NATted onto the WAN address.
  Packet syn;
  syn.timestamp = t0;
  syn.tuple = {lease->address, remote, 49152, 443, Protocol::kTcp};
  syn.size = B(64);
  syn.lan_mac = phone;
  ASSERT_TRUE(gateway_.nat().translate_outbound(syn));
  EXPECT_EQ(syn.tuple.src_ip, gateway_.nat().config().wan_address);
  EXPECT_FALSE(syn.tuple.src_ip.is_private());

  // 4. The reply finds its way back to the phone, with attribution.
  Packet reply;
  reply.timestamp = t0 + Millis(80);
  reply.tuple = syn.tuple.reversed();
  reply.direction = Direction::kDownstream;
  ASSERT_TRUE(gateway_.nat().translate_inbound(reply));
  EXPECT_EQ(reply.tuple.dst_ip, lease->address);
  EXPECT_EQ(reply.lan_mac, phone);

  // 5. The gateway can map the WAN port back to the offending device —
  //    the Section 7 security-alert use case.
  const auto owner = gateway_.nat().owner_of_port(syn.tuple.src_port, Protocol::kTcp);
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(*owner, phone);
}

TEST_F(PacketPathTest, WiredAndWirelessDevicesShareOneWanAddress) {
  // A wired desktop and two wireless clients all surf at once; outside the
  // NAT they are one host.
  const MacAddress devs[] = {
      MacAddress::FromParts(0x0024D7, 1),
      MacAddress::FromParts(0x7CD1C3, 2),
      MacAddress::FromParts(0x000D4B, 3),
  };
  const Ipv4Address remote(93, 184, 216, 34);

  std::vector<std::uint16_t> wan_ports;
  for (const MacAddress mac : devs) {
    const auto lease = gateway_.dhcp().acquire(mac, t0);
    ASSERT_TRUE(lease.has_value());

    Packet pkt;
    pkt.timestamp = t0;
    pkt.tuple = {lease->address, remote, 50000, 80, Protocol::kTcp};
    pkt.lan_mac = mac;
    ASSERT_TRUE(gateway_.nat().translate_outbound(pkt));
    EXPECT_EQ(pkt.tuple.src_ip, gateway_.nat().config().wan_address);
    wan_ports.push_back(pkt.tuple.src_port);
  }
  // Distinct devices, distinct WAN ports, one IP.
  EXPECT_NE(wan_ports[0], wan_ports[1]);
  EXPECT_NE(wan_ports[1], wan_ports[2]);

  // Each reply still reaches the right device.
  for (std::size_t i = 0; i < 3; ++i) {
    Packet reply;
    reply.timestamp = t0 + Seconds(1);
    reply.tuple = {remote, gateway_.nat().config().wan_address, 80, wan_ports[i],
                   Protocol::kTcp};
    reply.direction = Direction::kDownstream;
    ASSERT_TRUE(gateway_.nat().translate_inbound(reply));
    EXPECT_EQ(reply.lan_mac, devs[i]);
  }
}

TEST_F(PacketPathTest, DeviceChurnRecyclesResources) {
  // Devices come and go; leases and mappings must not leak.
  for (int round = 0; round < 50; ++round) {
    const MacAddress mac =
        MacAddress::FromParts(0x001EC2, static_cast<std::uint32_t>(round % 7 + 1));
    const TimePoint now = t0 + Minutes(10 * round);
    const auto lease = gateway_.dhcp().acquire(mac, now);
    ASSERT_TRUE(lease.has_value());
    Packet pkt;
    pkt.timestamp = now;
    pkt.tuple = {lease->address, Ipv4Address(1, 2, 3, 4),
                 static_cast<std::uint16_t>(40000 + round), 443, Protocol::kUdp};
    pkt.lan_mac = mac;
    ASSERT_TRUE(gateway_.nat().translate_outbound(pkt));
    gateway_.nat().expire_idle(now);
  }
  // Only 7 distinct devices: the DHCP pool holds exactly 7 leases, and the
  // NAT's UDP mappings expired down to the recent ones.
  EXPECT_EQ(gateway_.dhcp().active_leases(), 7u);
  EXPECT_LE(gateway_.nat().active_mappings(), 3u);
  EXPECT_EQ(gateway_.nat().stats().mappings_created,
            gateway_.nat().stats().mappings_expired + gateway_.nat().active_mappings());
}

}  // namespace
}  // namespace bismark
