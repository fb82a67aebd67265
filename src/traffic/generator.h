// Per-home traffic generation.
//
// Drives application sessions on every device of one home through the
// discrete-event engine: a session resolves its domain via the home's
// caching resolver, opens flows with app-specific shapes, transfers them
// as piecewise-constant-rate bursts (so the gateway can meter per-second
// peaks, Section 6.2), and reports everything to a TrafficSink — the
// gateway firmware implements that interface.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/rng.h"
#include "core/time.h"
#include "core/units.h"
#include "net/dns.h"
#include "net/flow.h"
#include "net/packet.h"
#include "sim/engine.h"
#include "traffic/apps.h"
#include "traffic/device_types.h"
#include "traffic/domains.h"

namespace bismark::traffic {

/// Metadata reported when a flow opens. The tuple is the LAN-side
/// (pre-NAT) view; the gateway translates it outbound.
struct FlowOpen {
  net::FlowId id;
  net::FiveTuple lan_tuple;
  net::MacAddress device_mac;
  std::string domain;  // queried name (pre-anonymisation); may be empty
  AppType app{AppType::kWebBrowsing};
  TimePoint opened;
};

/// One transfer burst of a flow: `bytes_*` move uniformly over
/// [start, start + duration].
struct FlowChunk {
  net::FlowId id;
  TimePoint start;
  Duration duration{0};
  Bytes bytes_up;
  Bytes bytes_down;
  std::uint32_t packets_up{0};
  std::uint32_t packets_down{0};
};

/// Receiver of generated traffic — implemented by the BISmark gateway.
/// Rate calls bracket each burst so the sink can meter instantaneous
/// aggregate throughput exactly (piecewise-constant rates).
class TrafficSink {
 public:
  virtual ~TrafficSink() = default;

  virtual void on_dns(const net::DnsResponse& response, net::MacAddress device,
                      TimePoint now) = 0;
  virtual void on_flow_open(const FlowOpen& open) = 0;
  virtual void on_chunk(const FlowChunk& chunk) = 0;
  virtual void on_flow_close(const net::FlowRecord& record) = 0;

  /// Ask how much of `demand_bps` the access link can grant right now in
  /// `dir` (processor-sharing approximation; may exceed capacity when the
  /// sink models a bufferbloated queue absorbing the excess).
  virtual double admit_rate(net::Direction dir, double demand_bps) = 0;
  /// Bracket an active burst's contribution to the aggregate rate.
  virtual void add_rate(net::Direction dir, double bps, TimePoint now) = 0;
  virtual void remove_rate(net::Direction dir, double bps, TimePoint now) = 0;
};

/// Hour-of-day activity weights, the substrate of the Fig. 13 diurnal
/// pattern: weekday evenings peak, weekends stay flat.
struct ActivityCurve {
  std::array<double, 24> weekday;
  std::array<double, 24> weekend;

  static ActivityCurve Residential();
  [[nodiscard]] double weight(Weekday day, int hour) const;
  [[nodiscard]] double max_weight() const;
};

/// Everything the generator needs to know about one device.
struct DeviceWorkload {
  net::MacAddress mac;
  net::Ipv4Address ip;
  DeviceType type{DeviceType::kLaptop};
  /// Household-level appetite multiplier; >1 for the home's primary device.
  double hunger_scale{1.0};
  /// Peak session arrivals per hour (scaled by the activity curve).
  double sessions_per_hour_peak{4.0};
  std::array<double, kAppTypeCount> app_mix{};
  /// Presence probe: true when the device is on the network and the home
  /// is online. Sessions are only started (and bursts only emitted) while
  /// this holds.
  std::function<bool(TimePoint)> is_active;
};

struct GeneratorStats {
  std::uint64_t sessions{0};
  std::uint64_t flows{0};
  std::uint64_t chunks{0};
  std::uint64_t dns_queries{0};
  std::uint64_t suppressed_inactive{0};
};

/// Generates the traffic of one home.
class HomeTrafficGenerator {
 public:
  HomeTrafficGenerator(sim::Engine& engine, const DomainCatalog& catalog,
                       net::DnsResolver& resolver, TrafficSink& sink, TimeZone tz, Rng rng);

  void add_device(DeviceWorkload workload);

  /// Arm session scheduling over [begin, end).
  void start(TimePoint begin, TimePoint end);

  [[nodiscard]] const GeneratorStats& stats() const { return stats_; }
  [[nodiscard]] const ActivityCurve& activity() const { return activity_; }

  /// Burst sub-division: long flows transfer in on/off bursts of roughly
  /// this length (duty cycle below), which is what creates measurable
  /// per-second peaks above the mean rate.
  void set_burst_params(Duration burst_len, double duty_cycle);

 private:
  struct DeviceState {
    DeviceWorkload workload;
    Rng rng{0};
    std::uint16_t next_ephemeral_port{20000};
    /// Per-device favourite domains per category: a Roku streams from its
    /// two subscribed services, not from a fresh draw each session — the
    /// stickiness behind Fig. 20's per-device fingerprints.
    std::map<int, std::vector<std::size_t>> favorites;
  };

  sim::Engine& engine_;
  const DomainCatalog& catalog_;
  net::DnsResolver& resolver_;
  TrafficSink& sink_;
  TimeZone tz_;
  Rng rng_;
  ActivityCurve activity_;
  std::vector<std::unique_ptr<DeviceState>> devices_;
  TimePoint window_end_{};
  GeneratorStats stats_;
  std::uint64_t next_flow_id_{1};
  Duration burst_len_{Seconds(8).ms};
  double duty_cycle_{0.55};

  void schedule_next_session(DeviceState& dev);
  void run_session(DeviceState& dev);
  std::size_t apply_favorites(DeviceState& dev, std::size_t domain_index);
  void open_flow(DeviceState& dev, const SessionPlan& plan, const FlowPlan& fp);
  void transfer(DeviceState& dev, std::shared_ptr<net::FlowRecord> record, Bytes remaining_up,
                Bytes remaining_down, BitRate rate_up, BitRate rate_down, bool bursty);
};

}  // namespace bismark::traffic
