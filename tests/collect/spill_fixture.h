// Shared spill fixture: a small synthetic deployment staged either in RAM
// or through spill segments with a tiny flush threshold, so every kind is
// fragmented into many sections (multi-level merges at a small fan-in).
#pragma once

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "collect/repository.h"
#include "core/rng.h"

namespace bismark::collect::spill_fixture {

constexpr int kHomes = 24;
constexpr int kShardSize = 4;
constexpr int kShards = kHomes / kShardSize;

inline std::filesystem::path FreshSpillDir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("bsmk-test-spill-") + tag + "-" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

/// Deterministic synthetic rows for one home, fed to whichever sink the
/// caller stages through. Includes same-timestamp ties within the home
/// (resolved by append order) and across homes (resolved by home id).
inline void EmitHome(RecordSink& sink, const DatasetWindows& w, int home_idx) {
  const HomeId home{home_idx};
  Rng rng(900 + static_cast<std::uint64_t>(home_idx));

  TimePoint t = w.heartbeats.start;
  for (int run = 0; run < 6; ++run) {
    const TimePoint end = t + Hours(4 + (home_idx + run) % 5);
    sink.add_heartbeat_run(HeartbeatRun{home, t, end});
    t = end + Hours(1 + run % 3);
  }
  for (int i = 0; i < 20; ++i) {
    CapacityRecord cap;
    cap.home = home;
    // Same timestamp for every home: a cross-home SortKey tie.
    cap.measured = w.capacity.start + Hours(6 * i);
    cap.downstream = BitRate{rng.uniform(1e6, 1e8)};
    cap.upstream = BitRate{rng.uniform(1e5, 1e7)};
    sink.add_capacity(cap);
  }
  for (int i = 0; i < 50; ++i) {
    DeviceCountRecord dev;
    dev.home = home;
    dev.sampled = w.devices.start + Hours(i * 5);
    dev.wired = home_idx % 3;
    dev.wireless_24 = i % 4;
    dev.unique_total = 2 + i / 10;
    sink.add_device_count(dev);
  }
  for (int i = 0; i < 40; ++i) {
    WifiScanRecord scan;
    scan.home = home;
    scan.scanned = w.wifi.start + Hours(i * 2);
    scan.band = i % 2 ? wireless::Band::k5GHz : wireless::Band::k2_4GHz;
    scan.channel = 1 + i % 11;
    scan.visible_aps = static_cast<int>(rng.uniform(0.0, 20.0));
    sink.add_wifi_scan(scan);
  }
  for (int i = 0; i < 30; ++i) {
    TrafficFlowRecord flow;
    flow.home = home;
    flow.flow = net::FlowId{static_cast<std::uint64_t>(home_idx) * 1000 + i};
    // Two flows per timestamp: a within-home tie, ordered by append.
    flow.first_packet = w.traffic.start + Hours(i / 2);
    flow.last_packet = flow.first_packet + Minutes(5);
    flow.dst_port = static_cast<std::uint16_t>(443 + i % 3);
    flow.device_mac = net::MacAddress::FromParts(0x001122, static_cast<std::uint32_t>(i));
    flow.bytes_up = B(static_cast<std::int64_t>(rng.uniform(1e3, 1e6)));
    flow.bytes_down = B(static_cast<std::int64_t>(rng.uniform(1e4, 1e7)));
    flow.domain = i % 4 ? "example.com" : "anon-deadbeef";
    flow.domain_anonymized = i % 4 == 0;
    sink.add_flow(flow);
  }
  for (int i = 0; i < 60; ++i) {
    ThroughputMinute tm;
    tm.home = home;
    tm.minute_start = w.traffic.start + Minutes(i);
    tm.bytes_down = B(1000 * (i + home_idx));
    tm.peak_down_bps = rng.uniform(0.0, 1e7);
    sink.add_throughput_minute(tm);
  }
  UptimeRecord up;
  up.home = home;
  up.reported = w.uptime.start + Hours(12 + home_idx % 7);
  up.uptime = Hours(100 + home_idx);
  sink.add_uptime(up);
}

inline void RegisterHomes(DataRepository& repo) {
  for (int h = 0; h < kHomes; ++h) {
    HomeInfo info;
    info.id = HomeId{h};
    info.country_code = "US";
    info.reports_uptime = true;
    info.reports_devices = true;
    repo.register_home(info);
  }
}

/// The reference: all rows staged in RAM, batches committed in shard order.
inline std::unique_ptr<DataRepository> BuildInRam(const DatasetWindows& w) {
  auto repo = std::make_unique<DataRepository>(w);
  RegisterHomes(*repo);
  for (int shard = 0; shard < kShards; ++shard) {
    IngestBatch batch = repo->make_batch();
    for (int h = shard * kShardSize; h < (shard + 1) * kShardSize; ++h) {
      EmitHome(batch, w, h);
    }
    repo->commit(std::move(batch));
  }
  repo->finalize_deterministic_order();
  return repo;
}

/// The spilled twin: a tiny budget forces many mid-shard flushes (so every
/// kind gets several sections per shard), and commits land in *reverse*
/// shard order to prove the merge re-derives the canonical order.
inline std::unique_ptr<DataRepository> BuildSpilled(const DatasetWindows& w,
                                             const std::filesystem::path& dir,
                                             std::size_t merge_fan_in = 256) {
  auto repo = std::make_unique<DataRepository>(w);
  RegisterHomes(*repo);
  SpillConfig cfg;
  cfg.dir = dir.string();
  cfg.budget_bytes = 16 << 10;  // threshold clamps to the 4 KiB floor
  cfg.workers = 2;
  cfg.merge_fan_in = merge_fan_in;
  repo->enable_spill(cfg);
  for (int shard = kShards - 1; shard >= 0; --shard) {
    IngestBatch batch = repo->make_batch();
    batch.attach_spill(repo->spill(), static_cast<std::uint32_t>(shard),
                       static_cast<std::size_t>(shard % 2));
    for (int h = shard * kShardSize; h < (shard + 1) * kShardSize; ++h) {
      EmitHome(batch, w, h);
    }
    repo->commit(std::move(batch));
  }
  repo->finalize_deterministic_order();
  return repo;
}

}  // namespace bismark::collect::spill_fixture
