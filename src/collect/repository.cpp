#include "collect/repository.h"

#include <algorithm>
#include <tuple>

#include "collect/manifest.h"

namespace bismark::collect {

namespace {

/// HomeInfo's fields in their durable order.
constexpr auto kHomeInfoFields = std::make_tuple(
    &HomeInfo::id, &HomeInfo::country_code, &HomeInfo::developed, &HomeInfo::utc_offset,
    &HomeInfo::reports_uptime, &HomeInfo::reports_devices, &HomeInfo::reports_wifi,
    &HomeInfo::consented_traffic, &HomeInfo::has_always_wired, &HomeInfo::has_always_wireless,
    &HomeInfo::true_down_mbps, &HomeInfo::true_up_mbps, &HomeInfo::power_mode);

}  // namespace

void EncodeHomeInfo(BinWriter& w, const HomeInfo& home) {
  std::apply([&](auto... member) { (w.value(home.*member), ...); }, kHomeInfoFields);
}

HomeInfo DecodeHomeInfo(BinReader& r) {
  HomeInfo home;
  std::apply([&](auto... member) { (r.value(home.*member), ...); }, kHomeInfoFields);
  return home;
}

DatasetWindows DatasetWindows::Paper() {
  DatasetWindows w;
  w.heartbeats = {MakeTime({2012, 10, 1}), MakeTime({2013, 4, 15})};
  w.uptime = {MakeTime({2013, 3, 6}), MakeTime({2013, 4, 15})};
  w.capacity = {MakeTime({2013, 4, 1}), MakeTime({2013, 4, 15})};
  w.devices = {MakeTime({2013, 3, 6}), MakeTime({2013, 4, 15})};
  w.wifi = {MakeTime({2012, 11, 1}), MakeTime({2012, 11, 15})};
  w.traffic = {MakeTime({2013, 4, 1}), MakeTime({2013, 4, 15})};
  return w;
}

DatasetWindows DatasetWindows::Compressed(TimePoint start, int heartbeat_weeks) {
  DatasetWindows w;
  const TimePoint end = start + Days(7.0 * heartbeat_weeks);
  w.heartbeats = {start, end};
  // Preserve relative proportions of the paper's windows.
  w.uptime = {end - Days(std::min(40.0, 7.0 * heartbeat_weeks)), end};
  w.capacity = {end - Days(std::min(14.0, 7.0 * heartbeat_weeks)), end};
  w.devices = w.uptime;
  w.wifi = {start, start + Days(std::min(14.0, 7.0 * heartbeat_weeks))};
  w.traffic = w.capacity;
  return w;
}

void DataRepository::register_home(HomeInfo info) {
  // Fleet runs register homes from worker threads as shards complete;
  // finalize_deterministic_order() restores the canonical (id) order.
  const std::lock_guard<std::mutex> lock(commit_mu_);
  homes_.push_back(std::move(info));
}

const HomeInfo* DataRepository::find_home(HomeId id) const {
  for (const auto& h : homes_) {
    if (h.id == id) return &h;
  }
  return nullptr;
}

void DataRepository::commit(IngestBatch&& batch) {
  if (batch.spilling()) {
    // Rows already live in segment sections; write out the remainder. The
    // section registry is thread-safe, so no commit lock is needed.
    batch.flush_spill();
    return;
  }
  const std::lock_guard<std::mutex> lock(commit_mu_);
  store_.append(std::move(batch.store_));
}

void DataRepository::enable_spill(SpillConfig config) {
  if (config.workers == 0) config.workers = 1;
  spill_ = std::make_unique<SpillDir>(std::move(config));
}

void DataRepository::enable_spill_recovered(SpillConfig config, const SpillRecovery& recovered) {
  if (config.workers == 0) config.workers = 1;
  spill_ = std::make_unique<SpillDir>(std::move(config), recovered);
  // Completed shards' homes come from the manifest, not a re-run;
  // finalize_deterministic_order() restores the canonical order later.
  for (const HomeInfo& home : recovered.homes) register_home(home);
}

void DataRepository::finalize_deterministic_order() {
  std::sort(homes_.begin(), homes_.end(),
            [](const HomeInfo& a, const HomeInfo& b) { return a.id.value < b.id.value; });
  store_.sort_canonical();
  if (spill_ != nullptr) spill_->flush_all();
}

void IngestBatch::attach_spill(SpillDir* dir, std::uint32_t shard, std::size_t worker) {
  spill_ = dir;
  log_ = &dir->log_for_worker(worker);
  shard_ = shard;
  flush_threshold_ = dir->config().flush_threshold();
  staged_bytes_ = 0;
}

void IngestBatch::flush_spill() {
  if (spill_ == nullptr) return;
  BinWriter row_w;
  std::string body;
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    auto& vec = store_.rows<T>();
    if (vec.empty()) return;
    // Each section is one stable-sorted run: within a shard, runs are
    // flushed in chronological append order, which is exactly the residual
    // tie order the in-RAM stable sort preserves (see spill.h).
    std::stable_sort(vec.begin(), vec.end(), [](const T& a, const T& b) {
      return Schema<T>::SortKey(a) < Schema<T>::SortKey(b);
    });
    body.clear();
    for (const T& row : vec) {
      row_w.clear();
      EncodeRow(row_w, row);
      const auto len = static_cast<std::uint32_t>(row_w.size());
      char prefix[4];
      for (std::size_t i = 0; i < 4; ++i) {
        prefix[i] = static_cast<char>((len >> (8 * i)) & 0xff);
      }
      body.append(prefix, 4);
      body.append(row_w.buffer());
    }
    constexpr std::size_t kKind = kRecordIndexOf<T>;
    const SectionRef ref = log_->append(static_cast<std::uint32_t>(kKind), shard_,
                                        runs_[kKind]++, vec.size(), body);
    spill_->register_section(kKind, ref);
    // Deallocate rather than clear(): the runner keeps every shard's batch
    // object alive until the run ends, so retained capacity across
    // thousands of committed batches would pin the whole dataset in RAM.
    std::vector<T>().swap(vec);
  });
  staged_bytes_ = 0;
}

namespace {
// Streams rather than copies the backing vector so the filtered views work
// on spilled and column-backed repositories too, not just the in-RAM store.
template <typename T>
std::vector<T> FilterByHome(const DataRepository& repo, HomeId id) {
  std::vector<T> out;
  repo.for_each_row<T>([&](const T& r) {
    if (r.home == id) out.push_back(r);
  });
  return out;
}
}  // namespace

std::vector<HeartbeatRun> DataRepository::heartbeat_runs_for(HomeId id) const {
  return FilterByHome<HeartbeatRun>(*this, id);
}
std::vector<DeviceCountRecord> DataRepository::device_counts_for(HomeId id) const {
  return FilterByHome<DeviceCountRecord>(*this, id);
}
std::vector<TrafficFlowRecord> DataRepository::flows_for(HomeId id) const {
  return FilterByHome<TrafficFlowRecord>(*this, id);
}
std::vector<ThroughputMinute> DataRepository::throughput_for(HomeId id) const {
  return FilterByHome<ThroughputMinute>(*this, id);
}
std::vector<CapacityRecord> DataRepository::capacity_for(HomeId id) const {
  return FilterByHome<CapacityRecord>(*this, id);
}

DataRepository::Counts DataRepository::counts() const {
  return Counts{row_count<HeartbeatRun>(),    row_count<UptimeRecord>(),
                row_count<CapacityRecord>(),  row_count<DeviceCountRecord>(),
                row_count<WifiScanRecord>(),  row_count<TrafficFlowRecord>(),
                row_count<ThroughputMinute>(), row_count<DnsLogRecord>(),
                row_count<DeviceTrafficRecord>(), row_count<CgnEventRecord>()};
}

}  // namespace bismark::collect
