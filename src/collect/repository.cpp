#include "collect/repository.h"

#include <algorithm>
#include <stdexcept>

#include "collect/column_snapshot.h"
#include "collect/manifest.h"

namespace bismark::collect {

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
    constexpr std::size_t kKind = kRecordIndexOf<T>;
    spill_->register_section(kKind, log_->append_rows<T>(shard_, runs_[kKind]++, vec));
    // Deallocate rather than clear(): the batch then holds only rows not
    // yet flushed, which is what the flush threshold bounds, instead of
    // every kind's high-water capacity until its shard task ends.
    std::vector<T>().swap(vec);
  });
  staged_bytes_ = 0;
}

std::vector<HeartbeatRun> DataRepository::heartbeat_runs_for(HomeId id) const {
  std::vector<HeartbeatRun> out;
  for_each_row<HeartbeatRun>([&](const HeartbeatRun& run) {
    if (run.home == id) out.push_back(run);
  });
  return out;
}

template <typename T>
std::size_t DataRepository::row_count() const {
  constexpr std::size_t kKind = kRecordIndexOf<T>;
  if (columns_ != nullptr) return static_cast<std::size_t>(columns_->rows_of_kind(kKind));
  if (spill_ != nullptr) return static_cast<std::size_t>(spill_->rows_of_kind(kKind));
  return store_.rows<T>().size();
}

std::size_t DataRepository::total_rows() const {
  if (columns_ != nullptr) return static_cast<std::size_t>(columns_->total_rows());
  if (spill_ != nullptr) return static_cast<std::size_t>(spill_->total_rows());
  return store_.total_rows();
}

DataRepository::Counts DataRepository::counts() const {
  return Counts{row_count<HeartbeatRun>(),    row_count<UptimeRecord>(),
                row_count<CapacityRecord>(),  row_count<DeviceCountRecord>(),
                row_count<WifiScanRecord>(),  row_count<TrafficFlowRecord>(),
                row_count<ThroughputMinute>(), row_count<DnsLogRecord>(),
                row_count<DeviceTrafficRecord>(), row_count<CgnEventRecord>()};
}

// --- the row reader -----------------------------------------------------------

template <typename T>
RowReader<T>::RowReader(const DataRepository& repo, FieldMask<T> fields)
    : columns_(repo.columns()), fields_(fields) {
  if (columns_ != nullptr) {
    stripe_end_ = columns_->stripes_of_kind(kRecordIndexOf<T>);
  } else if (SpillDir* dir = repo.spill()) {
    spilled_ = std::make_unique<SpilledRowStream<T>>(*dir);
  } else {
    resident_ = &repo.rows<T>();
  }
}

template <typename T>
RowReader<T>::RowReader(const DataRepository& repo, std::size_t stripe, FieldMask<T> fields)
    : columns_(repo.columns()), fields_(fields), stripe_(stripe), stripe_end_(stripe + 1) {
  if (columns_ == nullptr) throw std::logic_error("RowReader: stripes need a column snapshot");
}

template <typename T>
RowReader<T>::~RowReader() = default;

template <typename T>
std::span<const T> RowReader<T>::read(std::vector<T>& buffer) {
  if (resident_ != nullptr) {
    const std::size_t n = std::min(kReadBatchRows, resident_->size() - resident_next_);
    const std::span<const T> batch(resident_->data() + resident_next_, n);
    resident_next_ += n;
    return batch;
  }
  buffer.clear();
  if (spilled_ != nullptr) {
    spilled_->read(buffer, kReadBatchRows);
    return buffer;
  }
  // The one stripe decode loop: a batch may span stripes. Rows start
  // value-initialized, so the fields outside the mask stay that way.
  while (buffer.size() < kReadBatchRows && stripe_ < stripe_end_) {
    const TableView<T> view = columns_->stripe<T>(stripe_, fields_);
    for (; stripe_row_ < view.rows() && buffer.size() < kReadBatchRows; ++stripe_row_) {
      view.row(stripe_row_, &buffer.emplace_back(), fields_);
    }
    if (stripe_row_ == view.rows()) {
      ++stripe_;
      stripe_row_ = 0;
    }
  }
  return buffer;
}

#define BISMARK_REPOSITORY_INSTANTIATE(T) \
  template class RowReader<T>;            \
  template std::size_t DataRepository::row_count<T>() const;
BISMARK_FOR_EACH_RECORD_KIND(BISMARK_REPOSITORY_INSTANTIATE)
#undef BISMARK_REPOSITORY_INSTANTIATE

}  // namespace bismark::collect
