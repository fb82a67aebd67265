// Allocation order under churn, pinned for both NAT tiers.
//
// One fixed script of TCP, UDP and ICMP flows, replies, unsolicited
// inbound and expiry sweeps runs through a small NAT44 (16 ports) and a
// small NAT444 tier (three subscribers, 4-port blocks, a 10-port cap). The
// trace records which external port every outbound packet gets, which
// packets drop and how many mappings each sweep frees; the literals pin
// that order, so any change to a tier's port policy or to the table shows
// here. A sweep that frees many ports at once decides the order the next
// flows reuse them in (the CGN hands them back LIFO in its table's
// iteration order), which no smaller case observes.
// Every entry point must give the same trace: the struct path, the wire
// path, and the two alternating over one table.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "net/cgn.h"
#include "net/nat.h"
#include "net/wire.h"

namespace bismark::net {
namespace {

constexpr Ipv4Address kInside(192, 168, 1, 10);
constexpr Ipv4Address kRemote(93, 184, 216, 34);
constexpr Ipv4Address kStranger(198, 18, 0, 9);
const TimePoint kT0 = MakeTime({2013, 4, 1});
const MacAddress kDevice = MacAddress::FromParts(0x001EC2, 7);

enum class Op { kOut, kReply, kStranger, kSweep };
enum class Path { kStruct, kWire, kAlternate };

struct Step {
  Op op;
  Protocol proto;
  std::uint16_t flow;        // picks the inside source port
  std::uint32_t subscriber;  // CGN subscriber; NAT44 ignores it
  Duration at;
};

std::vector<Step> ChurnScript() {
  constexpr Protocol kProtos[] = {Protocol::kTcp, Protocol::kUdp, Protocol::kIcmp};
  std::vector<Step> script;
  for (int i = 0; i < 180; ++i) {
    Step s{Op::kOut, kProtos[(i / 2 + i / 7) % 3], static_cast<std::uint16_t>((i * 7) % 29),
           static_cast<std::uint32_t>(i % 3), Seconds(10 * i)};
    if (i % 12 == 11) {
      s.op = Op::kSweep;
    } else if (i % 5 == 3) {
      s.op = Op::kReply;
    } else if (i % 17 == 8) {
      s.op = Op::kStranger;
    }
    script.push_back(s);
  }
  return script;
}

std::uint16_t RemotePort(Protocol proto) {
  switch (proto) {
    case Protocol::kTcp: return 443;
    case Protocol::kUdp: return 53;
    case Protocol::kIcmp: return 0;  // echo requests carry no remote port on the wire
  }
  return 0;
}

bool Outbound(NatTable& nat, std::uint32_t, Packet& p) { return nat.translate_outbound(p); }
bool Outbound(CgnTable& cgn, std::uint32_t subscriber, Packet& p) {
  return cgn.translate_outbound(subscriber, p);
}
bool OutboundWire(NatTable& nat, std::uint32_t, std::span<std::byte> frame, TimePoint now) {
  return nat.translate_outbound_wire(frame, now, kDevice);
}
bool OutboundWire(CgnTable& cgn, std::uint32_t subscriber, std::span<std::byte> frame,
                  TimePoint now) {
  return cgn.translate_outbound_wire(subscriber, frame, now);
}

/// Drives the script through `table` and returns the trace: the external
/// port of each outbound packet ("-" when dropped), "<" or "x" for each
/// inbound packet let through or dropped, and "e<n>" for a sweep that
/// expired n mappings.
template <class Table>
std::string RunChurn(Table& table, Ipv4Address inside, Ipv4Address external, Path path) {
  std::map<std::tuple<Protocol, std::uint16_t, std::uint32_t>, std::uint16_t> last_port;
  std::string trace;
  int step_no = 0;
  for (const Step& s : ChurnScript()) {
    const TimePoint now = kT0 + s.at;
    const bool wire = path == Path::kWire || (path == Path::kAlternate && step_no++ % 2 == 1);
    if (s.op == Op::kSweep) {
      trace += " e" + std::to_string(table.expire_idle(now));
      continue;
    }
    const auto key = std::make_tuple(s.proto, s.flow, s.subscriber);
    Packet p;
    p.timestamp = now;
    p.size = B(128);
    std::array<std::byte, wire::kMaxFrameBytes> buf{};
    if (s.op == Op::kOut) {
      p.tuple = {Ipv4Address(inside.value() + s.subscriber), kRemote,
                 static_cast<std::uint16_t>(40000 + s.flow), RemotePort(s.proto), s.proto};
      p.direction = Direction::kUpstream;
      p.lan_mac = kDevice;
      std::optional<std::uint16_t> port;
      if (wire) {
        const std::size_t len = wire::EncodeFrame(p, kDevice, kDevice, buf);
        const std::span<std::byte> frame(buf.data(), len);
        if (OutboundWire(table, s.subscriber, frame, now)) {
          port = wire::ExtractTuple(frame)->src_port;
        }
      } else if (Outbound(table, s.subscriber, p)) {
        port = p.tuple.src_port;
      }
      if (port) last_port[key] = *port;
      trace += port ? " " + std::to_string(*port) : std::string(" -");
      continue;
    }
    const auto known = last_port.find(key);
    p.tuple = {s.op == Op::kStranger ? kStranger : kRemote, external, RemotePort(s.proto),
               known == last_port.end() ? std::uint16_t{1024} : known->second, s.proto};
    p.direction = Direction::kDownstream;
    bool ok = false;
    if (wire) {
      const std::size_t len = wire::EncodeFrame(p, kDevice, kDevice, buf);
      ok = table.translate_inbound_wire(std::span<std::byte>(buf.data(), len), now);
    } else {
      ok = table.translate_inbound(p);
    }
    trace += ok ? " <" : " x";
  }
  return trace;
}

std::string Counters(const auto& stats, std::size_t active) {
  return std::to_string(stats.translations_out) + " out, " +
         std::to_string(stats.translations_in) + " in, " +
         std::to_string(stats.mappings_created) + " created, " +
         std::to_string(stats.mappings_expired) + " expired, " +
         std::to_string(stats.port_exhaustion_drops) + " exhausted, " +
         std::to_string(stats.unknown_inbound_drops) + " unknown, " + std::to_string(active) +
         " active";
}

TEST(NatChurnTest, Nat44AllocationOrderIsPinned) {
  NatConfig config;
  config.port_range_lo = 1024;
  config.port_range_hi = 1039;
  config.tcp_idle_timeout = Minutes(10);
  config.udp_idle_timeout = Minutes(3);
  config.icmp_idle_timeout = Seconds(30);
  for (const Path path : {Path::kStruct, Path::kWire, Path::kAlternate}) {
    NatTable nat(config);
    EXPECT_EQ(RunChurn(nat, kInside, config.wan_address, path),
            " 1024 1025 1026 x 1027 1028 1029 1030 x 1031 1032 e2 1033 x 1034 1035 1036 1037 x"
            " 1038 1039 1024 1025 e3 1026 x 1027 1028 < 1030 1031 1032 1033 x 1036 e4 1037 1038"
            " < 1027 1029 1030 x < 1033 1034 1035 e7 < 1036 1037 1038 1028 < 1035 1037 1038"
            " 1031 x e6 1032 1033 1037 x 1038 1039 1033 - x 1038 - e11 1039 x 1024 1025 x 1026"
            " < 1027 1029 1032 1033 e8 1034 1035 1036 1037 x 1038 1039 1024 1025 x 1025 e6 1027"
            " 1028 < 1030 1031 1032 1033 x 1036 1038 1039 e7 < 1026 x 1029 1027 < 1030 1033"
            " 1034 1035 < e8 1036 1037 1038 < 1039 1024 1028 x < 1031 1032 e9 1033 < 1034 1035"
            " 1037 1031 < 1032 - - 1034 e7 x 1035 1029 1033 x 1034 1032 - 1035 < - e8 1036 1037"
            " x 1038 1039 x 1024 < 1025 1034 1038 e7 < 1030 1031 1032 1033 x 1024 1034 1035"
            " 1036 < e7")
        << "path " << static_cast<int>(path);
    EXPECT_EQ(Counters(nat.stats(), nat.active_mappings()),
              "119 out, 18 in, 118 created, 100 expired, 6 exhausted, 22 unknown, 18 active");
  }
}

TEST(NatChurnTest, CgnAllocationOrderIsPinned) {
  CgnConfig config;
  config.port_range_lo = 1024;
  config.port_range_hi = 1071;  // 48 ports: 12 blocks, 4 per subscriber
  config.port_block_size = 4;
  config.max_ports_per_subscriber = 10;
  config.subscriber_count = 3;
  config.tcp_idle_timeout = Minutes(10);
  config.udp_idle_timeout = Minutes(3);
  config.icmp_idle_timeout = Seconds(30);
  for (const Path path : {Path::kStruct, Path::kWire, Path::kAlternate}) {
    CgnTable cgn(config);
    EXPECT_EQ(RunChurn(cgn, Ipv4Address(100, 64, 0, 1), config.external_address, path),
            " 1024 1040 1056 x 1041 1057 1025 1042 x 1026 1043 e2 1027 x 1057 1028 1041 1058 x"
            " 1044 1059 1029 1045 e3 1026 x 1056 1030 < 1060 1031 1044 1061 x 1046 e4 1027 1041"
            " < 1032 1042 1062 x < 1063 1033 1045 e7 < 1041 1058 1029 1047 < 1027 1048 1056"
            " 1030 x e6 1031 1045 1058 x 1044 1061 1029 1042 x - 1049 e11 1025 x 1061 1031 x"
            " 1062 x 1040 1063 1033 1043 e8 1028 1048 1059 1027 x 1057 1031 1040 1061 x 1045 e5"
            " 1026 1046 < 1025 1041 1060 - x 1057 - 1044 e6 < 1043 x 1027 - < 1032 - 1062 - <"
            " e8 1030 1041 1056 < 1047 1061 1026 x x - 1044 e9 1029 x 1058 1030 1042 1060 x"
            " 1049 1062 1027 1041 e7 x 1044 1063 1032 x 1058 1033 1047 1059 x 1040 e7 1031 1048"
            " x 1028 1045 x 1030 x 1061 - 1044 e7 < 1049 1057 1025 1041 x 1024 1046 1058 1028 <"
            " e5")
        << "path " << static_cast<int>(path);
    EXPECT_EQ(Counters(cgn.stats(), cgn.active_mappings()),
              "117 out, 12 in, 116 created, 95 expired, 8 exhausted, 28 unknown, 21 active");
    std::string per_subscriber;
    for (std::uint32_t s = 0; s < 3; ++s) {
      const CgnSubscriberStats& ss = cgn.subscriber_stats(s);
      per_subscriber += " [" + std::to_string(ss.blocks_allocated) + " blocks, " +
                        std::to_string(ss.ports_in_use) + " in use, " +
                        std::to_string(ss.ports_peak) + " peak, " +
                        std::to_string(ss.translations_out) + " out, " +
                        std::to_string(ss.translations_in) + " in, " +
                        std::to_string(ss.exhaustion_drops) + " drops]";
    }
    EXPECT_EQ(per_subscriber,
              " [3 blocks, 7 in use, 10 peak, 40 out, 12 in, 6 drops]"
              " [3 blocks, 7 in use, 10 peak, 43 out, 0 in, 2 drops]"
              " [2 blocks, 7 in use, 8 peak, 34 out, 0 in, 0 drops]");
  }
}

}  // namespace
}  // namespace bismark::net
