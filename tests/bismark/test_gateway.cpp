#include <gtest/gtest.h>

#include "bismark/gateway.h"
#include "collect/repository.h"

namespace bismark::gateway {
namespace {

const TimePoint t0 = MakeTime({2013, 4, 1});

class GatewayTest : public ::testing::Test {
 protected:
  GatewayTest()
      : catalog_(traffic::DomainCatalog::BuildStandard()),
        anonymizer_(catalog_, {}),
        windows_(collect::DatasetWindows::Paper()),
        repo_(windows_),
        link_(net::AccessLinkConfig{Mbps(20), Mbps(4), KB(256), 0.02, false, 0.35}) {}

  Gateway MakeGateway(ConsentLevel consent) {
    GatewayConfig cfg;
    cfg.home = collect::HomeId{1};
    cfg.consent = consent;
    return Gateway(cfg, link_, anonymizer_, &repo_);
  }

  traffic::FlowOpen MakeOpen(std::uint64_t id, const std::string& domain) {
    traffic::FlowOpen open;
    open.id = net::FlowId{id};
    open.lan_tuple = {net::Ipv4Address(192, 168, 1, 10), net::Ipv4Address(1, 2, 3, 4),
                      static_cast<std::uint16_t>(30000 + id), 443, net::Protocol::kTcp};
    open.device_mac = net::MacAddress::FromParts(0x001EC2, 42);
    open.domain = domain;
    open.opened = t0;
    return open;
  }

  net::FlowRecord MakeRecord(std::uint64_t id, const std::string& domain, Bytes down) {
    net::FlowRecord record;
    record.id = net::FlowId{id};
    record.tuple = {net::Ipv4Address(192, 168, 1, 10), net::Ipv4Address(1, 2, 3, 4), 30000, 443,
                    net::Protocol::kTcp};
    record.device_mac = net::MacAddress::FromParts(0x001EC2, 42);
    record.first_packet = t0;
    record.last_packet = t0 + Minutes(1);
    record.bytes_down = down;
    record.bytes_up = KB(10);
    record.packets_down = 100;
    record.packets_up = 10;
    record.domain = domain;
    return record;
  }

  traffic::DomainCatalog catalog_;
  Anonymizer anonymizer_;
  collect::DatasetWindows windows_;
  collect::DataRepository repo_;
  net::AccessLink link_;
};

TEST_F(GatewayTest, FlowOpenCreatesNatMapping) {
  Gateway gw = MakeGateway(ConsentLevel::kFullTraffic);
  gw.on_flow_open(MakeOpen(1, "google.com"));
  EXPECT_EQ(gw.nat().active_mappings(), 1u);
  EXPECT_EQ(gw.nat().stats().translations_out, 1u);
}

TEST_F(GatewayTest, FlowCloseStoresAnonymizedRecord) {
  Gateway gw = MakeGateway(ConsentLevel::kFullTraffic);
  gw.on_flow_open(MakeOpen(1, "secret-site.net"));
  gw.on_flow_close(MakeRecord(1, "secret-site.net", MB(5)));
  ASSERT_EQ(repo_.flows().size(), 1u);
  const auto& rec = repo_.flows()[0];
  EXPECT_TRUE(rec.domain_anonymized);
  EXPECT_TRUE(Anonymizer::IsAnonToken(rec.domain));
  // MAC anonymised but OUI kept.
  EXPECT_EQ(rec.device_mac.oui(), 0x001EC2u);
  EXPECT_NE(rec.device_mac.nic(), 42u);
}

TEST_F(GatewayTest, WhitelistedDomainNotAnonymized) {
  Gateway gw = MakeGateway(ConsentLevel::kFullTraffic);
  gw.on_flow_close(MakeRecord(1, "netflix.com", MB(100)));
  ASSERT_EQ(repo_.flows().size(), 1u);
  EXPECT_EQ(repo_.flows()[0].domain, "netflix.com");
  EXPECT_FALSE(repo_.flows()[0].domain_anonymized);
}

TEST_F(GatewayTest, BasicConsentSuppressesTrafficRecords) {
  // Section 3.2: homes without written consent contribute no Traffic data.
  Gateway gw = MakeGateway(ConsentLevel::kBasic);
  gw.on_flow_open(MakeOpen(1, "google.com"));
  gw.on_flow_close(MakeRecord(1, "google.com", MB(5)));
  net::DnsResponse response;
  response.query = "google.com";
  gw.on_dns(response, net::MacAddress::FromParts(0x001EC2, 42), t0);
  EXPECT_TRUE(repo_.flows().empty());
  EXPECT_TRUE(repo_.dns().empty());
  EXPECT_TRUE(repo_.throughput().empty());
}

TEST_F(GatewayTest, DnsRecordsCountTypes) {
  Gateway gw = MakeGateway(ConsentLevel::kFullTraffic);
  net::DnsResponse response;
  response.query = "netflix.com";
  response.records.push_back(
      {net::DnsRecordType::kCname, "netflix.com", "edge-netflix.com", {}, Minutes(5)});
  response.records.push_back({net::DnsRecordType::kA, "edge-netflix.com", "",
                              net::Ipv4Address(1, 1, 1, 1), Minutes(1)});
  gw.on_dns(response, net::MacAddress::FromParts(0x001EC2, 42), t0);
  ASSERT_EQ(repo_.dns().size(), 1u);
  EXPECT_EQ(repo_.dns()[0].a_records, 1);
  EXPECT_EQ(repo_.dns()[0].cname_records, 1);
  EXPECT_EQ(repo_.dns()[0].query, "netflix.com");
  EXPECT_FALSE(repo_.dns()[0].anonymized);
}

TEST_F(GatewayTest, MeterRecordsClampedAtCapacity) {
  Gateway gw = MakeGateway(ConsentLevel::kFullTraffic);
  // Pump 40 Mbps of demand into the 20 Mbps downlink for a minute: the
  // metered per-second peak must cap at the shaped rate.
  gw.add_rate(net::Direction::kDownstream, 40e6, t0);
  gw.remove_rate(net::Direction::kDownstream, 40e6, t0 + Minutes(1));
  gw.finalize(t0 + Minutes(2));
  ASSERT_GE(repo_.throughput().size(), 1u);
  EXPECT_NEAR(repo_.throughput()[0].peak_down_bps, 20e6, 1e5);
}

TEST_F(GatewayTest, UpstreamClampedAtCapacityWithoutOverdrive) {
  Gateway gw = MakeGateway(ConsentLevel::kFullTraffic);
  gw.add_rate(net::Direction::kUpstream, 10e6, t0);
  gw.remove_rate(net::Direction::kUpstream, 10e6, t0 + Minutes(1));
  gw.finalize(t0 + Minutes(2));
  ASSERT_GE(repo_.throughput().size(), 1u);
  EXPECT_NEAR(repo_.throughput()[0].peak_up_bps, 4e6, 1e5);
}

TEST_F(GatewayTest, OverdriveLinkMetersAboveCapacity) {
  // The bufferbloat signature: gateway-side uplink throughput beyond the
  // shaped rate (Figs 15/16).
  net::AccessLinkConfig cfg{Mbps(20), Mbps(4), KB(512), 0.02, true, 0.35};
  net::AccessLink bloated(cfg);
  GatewayConfig gw_cfg;
  gw_cfg.home = collect::HomeId{2};
  gw_cfg.consent = ConsentLevel::kFullTraffic;
  Gateway gw(gw_cfg, bloated, anonymizer_, &repo_);
  gw.add_rate(net::Direction::kUpstream, 10e6, t0);
  gw.remove_rate(net::Direction::kUpstream, 10e6, t0 + Minutes(1));
  gw.finalize(t0 + Minutes(2));
  ASSERT_GE(repo_.throughput().size(), 1u);
  EXPECT_NEAR(repo_.throughput()[0].peak_up_bps, 4e6 * 1.35, 2e5);
}

TEST_F(GatewayTest, DeviceUsageAccumulatesAcrossConsentLevels) {
  // Aggregate per-device accounting is PII-free and runs regardless.
  Gateway gw = MakeGateway(ConsentLevel::kBasic);
  gw.on_flow_close(MakeRecord(1, "google.com", MB(5)));
  gw.on_flow_close(MakeRecord(2, "netflix.com", MB(10)));
  ASSERT_EQ(gw.device_usage().size(), 1u);
  const auto& usage = gw.device_usage().begin()->second;
  EXPECT_EQ(usage.flows, 2u);
  EXPECT_NEAR(usage.bytes_total.mb(), 15.02, 0.1);
}

TEST_F(GatewayTest, FinalizeExportsDeviceTraffic) {
  Gateway gw = MakeGateway(ConsentLevel::kFullTraffic);
  gw.on_flow_close(MakeRecord(1, "google.com", MB(5)));
  gw.finalize(t0 + Hours(1));
  ASSERT_EQ(repo_.device_traffic().size(), 1u);
  EXPECT_EQ(repo_.device_traffic()[0].vendor, net::VendorClass::kApple);
  EXPECT_NE(repo_.device_traffic()[0].device_mac.nic(), 42u);  // anonymised
}

TEST_F(GatewayTest, ChunksKeepNatMappingWarm) {
  GatewayConfig cfg;
  cfg.home = collect::HomeId{1};
  cfg.consent = ConsentLevel::kFullTraffic;
  cfg.nat.tcp_idle_timeout = Minutes(30);
  cfg.nat_gc_interval = Minutes(10);
  Gateway gw(cfg, link_, anonymizer_, &repo_);

  gw.on_flow_open(MakeOpen(1, "netflix.com"));
  // Stream chunks every 5 minutes for 2 hours, then open another flow to
  // trigger GC; the long-lived mapping must survive.
  for (int i = 1; i <= 24; ++i) {
    traffic::FlowChunk chunk;
    chunk.id = net::FlowId{1};
    chunk.start = t0 + Minutes(5 * i);
    chunk.duration = Seconds(8);
    chunk.bytes_down = MB(10);
    gw.on_chunk(chunk);
  }
  gw.on_flow_open(MakeOpen(2, "google.com"));  // triggers GC at +2h
  EXPECT_EQ(gw.nat().active_mappings(), 2u);
}

TEST_F(GatewayTest, CgnPlacedGatewayReportsItsSlice) {
  // NAT444: every outbound packet crosses the home NAT and then the
  // carrier-grade tier on the wire path, and finalize() reports the
  // home's slice of the CGN as one CgnEventRecord.
  GatewayConfig cfg;
  cfg.home = collect::HomeId{1};
  cfg.consent = ConsentLevel::kFullTraffic;
  cfg.cgn.enabled = true;
  cfg.cgn.config.subscriber_count = 4;
  cfg.cgn.config.port_block_size = 64;
  cfg.cgn.config.max_ports_per_subscriber = 100;
  cfg.cgn.subscriber_index = 2;
  cfg.cgn.cgn_id = 3;
  Gateway gw(cfg, link_, anonymizer_, &repo_);
  ASSERT_NE(gw.cgn(), nullptr);

  constexpr int kFlows = 3;
  constexpr int kChunks = 4;
  for (int id = 1; id <= kFlows; ++id) gw.on_flow_open(MakeOpen(id, "google.com"));
  for (int i = 1; i <= kChunks; ++i) {
    for (int id = 1; id <= kFlows; ++id) {
      traffic::FlowChunk chunk;
      chunk.id = net::FlowId{static_cast<std::uint64_t>(id)};
      chunk.start = t0 + Seconds(10 * i);
      chunk.duration = Seconds(1);
      chunk.bytes_down = KB(64);
      gw.on_chunk(chunk);
    }
  }
  for (int id = 1; id <= kFlows; ++id) gw.on_flow_close(MakeRecord(id, "google.com", MB(1)));
  gw.finalize(t0 + Hours(1));

  constexpr std::uint64_t kPackets = kFlows * (1 + kChunks);  // one SYN per flow, then chunks
  EXPECT_EQ(gw.nat().stats().translations_out, kPackets);
  const auto& events = repo_.rows<collect::CgnEventRecord>();
  ASSERT_EQ(events.size(), 1u);
  const collect::CgnEventRecord& ev = events[0];
  EXPECT_EQ(ev.home, collect::HomeId{1});
  EXPECT_EQ(ev.when, t0 + Hours(1));
  EXPECT_EQ(ev.cgn_id, 3);
  EXPECT_EQ(ev.port_block, gw.cgn()->slice_base_port(2));
  EXPECT_EQ(ev.port_block_size, 64u);
  EXPECT_EQ(ev.port_capacity, gw.cgn()->subscriber_port_capacity(2));
  EXPECT_EQ(ev.port_capacity, 100u);  // min(slice of 252 blocks x 64 ports, cap)
  EXPECT_EQ(ev.port_blocks_allocated, 1u);
  EXPECT_EQ(ev.ports_peak, static_cast<std::uint64_t>(kFlows));
  EXPECT_EQ(ev.translations_out, kPackets);
  EXPECT_EQ(ev.translations_in, 0u);
  EXPECT_EQ(ev.exhaustion_drops, 0u);
  EXPECT_EQ(ev.inbound_drops, 0u);
  EXPECT_EQ(gw.cgn()->stats().translations_out, kPackets);
}

TEST_F(GatewayTest, GatewayWithoutCgnReportsNoCgnEvent) {
  Gateway gw = MakeGateway(ConsentLevel::kFullTraffic);
  EXPECT_EQ(gw.cgn(), nullptr);
  gw.on_flow_open(MakeOpen(1, "google.com"));
  gw.on_flow_close(MakeRecord(1, "google.com", MB(1)));
  gw.finalize(t0 + Hours(1));
  EXPECT_EQ(gw.nat().stats().translations_out, 1u);
  EXPECT_TRUE(repo_.rows<collect::CgnEventRecord>().empty());
}


TEST_F(GatewayTest, AttachedUsageCapsChargedOnFlowClose) {
  Gateway gw = MakeGateway(ConsentLevel::kBasic);
  UsageCapConfig cap_cfg;
  cap_cfg.household_cap = MB(10);
  UsageCapManager caps(cap_cfg);
  gw.attach_usage_caps(&caps);
  EXPECT_EQ(gw.usage_caps(), &caps);

  gw.on_flow_close(MakeRecord(1, "google.com", MB(5)));
  gw.on_flow_close(MakeRecord(2, "netflix.com", MB(7)));
  EXPECT_GT(caps.household_used().mb(), 12.0);
  // 12 MB against a 10 MB cap: thresholds + exceeded fired.
  EXPECT_GE(caps.alerts().size(), 4u);
  EXPECT_EQ(caps.alerts().back().kind, CapAlertKind::kHouseholdExceeded);
}

}  // namespace
}  // namespace bismark::gateway
