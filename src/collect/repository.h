// The central data repository: everything the deployment reported,
// organised as the six data sets of Table 2 (plus extensions).
//
// Storage, window clipping, and the canonical order are all derived from
// the schema layer (collect/schema.h + collect/store.h): both the
// thread-private IngestBatch and the merged DataRepository are one
// RecordStore plus bookkeeping.
//
// A repository has one of three backings: resident rows, spill segments
// (collect/spill.h) or a v3 column snapshot (collect/column_snapshot.h).
// Every read goes through one RowReader, the only code besides the row
// counts that looks at which backing it is: for_each_row, the finish pass
// (collect/finish.h) and the per-stripe fleet summary all pull its batches.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "collect/column_view.h"
#include "collect/records.h"
#include "collect/sink.h"
#include "collect/spill.h"
#include "collect/store.h"
#include "core/intervals.h"
#include "core/time.h"

namespace bismark::collect {

class ColumnSnapshot;
template <typename T>
class RowReader;

namespace repository_detail {
/// Call `fn` on every row of one batch. Out of line on purpose: inlined
/// into for_each_row's loop, which also calls the reader, GCC keeps the
/// callback's by-reference captures in memory across rows, which halved
/// the speed of BM_SnapshotScanRowStore's one-add callback.
template <typename T, typename Fn>
[[gnu::noinline]] void EachRow(std::span<const T> batch, Fn& fn) {
  for (const T& row : batch) fn(row);
}
}  // namespace repository_detail

/// Per-home metadata the analysis layer keys on.
struct HomeInfo {
  HomeId id;
  std::string country_code;
  bool developed{true};
  Duration utc_offset{0};
  /// Which data sets this home contributes to (Table 2 router counts).
  bool reports_uptime{false};
  bool reports_devices{false};
  bool reports_wifi{false};
  bool consented_traffic{false};
  /// Firmware-computed, PII-free booleans: does some device stay connected
  /// through the whole Devices window (Table 5)?
  bool has_always_wired{false};
  bool has_always_wireless{false};
  /// Ground truth kept for validation (never read by the measurement
  /// pipeline itself): true shaped capacities and the availability the
  /// simulator generated.
  double true_down_mbps{0.0};
  double true_up_mbps{0.0};
  int power_mode{0};  // RouterPowerMode as int to avoid a home/ dependency

  friend bool operator==(const HomeInfo&, const HomeInfo&) = default;
};

/// HomeInfo's one durable field list (collect/binio.h), shared by the
/// manifest's shard-done records and the v3 snapshot meta file.
template <typename Io, typename Home>
void HomeInfoFields(Io& io, Home& home) {
  using H = HomeInfo;
  MemberFields(io, home, &H::id, &H::country_code, &H::developed, &H::utc_offset,
               &H::reports_uptime, &H::reports_devices, &H::reports_wifi, &H::consented_traffic,
               &H::has_always_wired, &H::has_always_wireless, &H::true_down_mbps,
               &H::true_up_mbps, &H::power_mode);
}

/// A per-shard staging buffer: the same write API and window clipping as
/// the repository, but entirely thread-private. A parallel deployment run
/// gives each shard one batch; the shard's producers write into it without
/// synchronisation and the shard task commits it into the DataRepository,
/// under a single lock, when it finishes.
class IngestBatch final : public RecordSink {
 public:
  explicit IngestBatch(DatasetWindows windows) : windows_(windows) {}

  void add_record(Record r) override {
    std::visit([this](auto&& rec) { this->add_one(std::move(rec)); }, std::move(r));
  }

  /// Bulk staging: the whole batch lands with a single virtual dispatch.
  void add_records(std::vector<Record> records) override {
    for (Record& r : records) add_record(std::move(r));
  }

  [[nodiscard]] std::size_t rows() const { return store_.total_rows(); }

  /// Route this batch through the spill dir: rows past the flush threshold
  /// are stable-sorted and appended to the worker's segment log instead of
  /// accumulating. Called by the runner before the shard task writes
  /// anything; `shard` is the shard-plan index (the canonical tie order)
  /// and `worker` picks the exclusively-owned segment log.
  void attach_spill(SpillDir* dir, std::uint32_t shard, std::size_t worker);

  [[nodiscard]] bool spilling() const { return spill_ != nullptr; }

  /// Write out every staged row (every kind) as sorted sections. Called at
  /// shard end — commit() also invokes it, so no rows can be stranded.
  void flush_spill();

 private:
  friend class DataRepository;

  template <typename T>
  void add_one(T rec) {
    if (!Schema<T>::Admit(windows_, rec)) return;
    if (spill_ != nullptr) {
      staged_bytes_ += ApproxRowBytes(rec);
      store_.rows<T>().push_back(std::move(rec));
      if (staged_bytes_ >= flush_threshold_) flush_spill();
      return;
    }
    store_.rows<T>().push_back(std::move(rec));
  }

  DatasetWindows windows_;
  RecordStore store_;

  // Spill wiring (null when the batch stages in RAM until commit).
  SpillDir* spill_{nullptr};
  SegmentLog* log_{nullptr};
  std::uint32_t shard_{0};
  std::size_t flush_threshold_{0};
  std::size_t staged_bytes_{0};
  std::array<std::uint32_t, kRecordKinds> runs_{};  // flush sequence per kind
};

/// All collected data. Appends go through the RecordSink interface and are
/// single-threaded (the simulation loop); parallel runs stage rows in
/// IngestBatch objects and `commit()` them (thread-safe). Analysis reads
/// are const and must only start once ingest is complete.
class DataRepository final : public RecordSink {
 public:
  explicit DataRepository(DatasetWindows windows) : windows_(windows) {}

  [[nodiscard]] const DatasetWindows& windows() const { return windows_; }

  // Registration.
  void register_home(HomeInfo info);
  [[nodiscard]] const std::vector<HomeInfo>& homes() const { return homes_; }
  [[nodiscard]] const HomeInfo* find_home(HomeId id) const;

  /// Append one record. Window clipping/rejection comes from the record's
  /// Schema<>::Admit, mirroring server-side checks.
  void add_record(Record r) override { store_.add(windows_, std::move(r)); }

  /// Bulk append (single virtual dispatch). Like add_record, single-
  /// threaded by contract; parallel runs stage through IngestBatch.
  void add_records(std::vector<Record> records) override {
    for (Record& r : records) store_.add(windows_, std::move(r));
  }

  /// Typed append that reports whether Schema<T>::Admit kept the record,
  /// so an importer can count what the windows drop.
  template <typename T>
  bool admit(T rec) {
    return store_.add(windows_, std::move(rec));
  }

  /// A fresh staging buffer sharing this repository's windows.
  [[nodiscard]] IngestBatch make_batch() const { return IngestBatch(windows_); }

  /// Append a finished batch's rows. Thread-safe: batches may be committed
  /// from worker threads as they complete; the commit order only affects
  /// the pre-`finalize_deterministic_order()` row order.
  void commit(IngestBatch&& batch);

  /// Route record storage through a spill-to-disk segment directory
  /// (collect/spill.h). Must be called before any ingest; batches made
  /// after this stage to disk once past the flush threshold and `rows<T>()`
  /// stays empty — readers use `for_each_row<T>()` instead. The in-RAM and
  /// spilled paths produce byte-identical canonical row orders.
  void enable_spill(SpillConfig config);
  /// Resume variant: adopt a recovered spill directory's committed sections
  /// and register the homes its completed shards contributed
  /// (collect/manifest.h).
  void enable_spill_recovered(SpillConfig config, const SpillRecovery& recovered);
  [[nodiscard]] bool spilling() const { return spill_ != nullptr; }
  [[nodiscard]] SpillDir* spill() const { return spill_.get(); }

  /// Back this repository with an opened v3 columnar snapshot
  /// (collect/column_snapshot.h): reads stream zero-copy from the mapped
  /// kind files and `rows<T>()` stays empty, exactly like the spill path.
  /// Mutually exclusive with ingest and with enable_spill.
  void attach_columns(std::shared_ptr<const ColumnSnapshot> columns) {
    columns_ = std::move(columns);
  }
  [[nodiscard]] bool column_backed() const { return columns_ != nullptr; }
  /// The backing snapshot (nullptr unless column-backed). Analysis code
  /// that wants per-stripe parallel scans reaches through this.
  [[nodiscard]] const ColumnSnapshot* columns() const { return columns_.get(); }

  /// Impose the canonical record order: every data set stably sorted by
  /// its Schema<>::SortKey — (timestamp, home id) for timestamped sets.
  /// Per-home generation is deterministic and each home lives in exactly
  /// one shard, so after this sort the repository contents are
  /// byte-identical for every worker/shard configuration — including the
  /// serial path. Call once, after all ingest. Homes are ordered by id for
  /// the same reason: fleet runs register them from worker threads.
  void finalize_deterministic_order();

  /// Generic data set accessor: `repo.rows<WifiScanRecord>()`. Empty when
  /// spilling — fleet-scale readers stream with for_each_row instead.
  template <typename T>
  [[nodiscard]] const std::vector<T>& rows() const {
    return store_.rows<T>();
  }

  /// Call `fn` on every row of kind T in canonical order, one RowReader
  /// batch at a time; each call on a spilled repository is one merge. A
  /// column-backed repository checks and decodes only `fields` (see
  /// RowReader). The summary, export and snapshot writers read through one
  /// FinishPass (collect/finish.h) instead, so they share that merge.
  /// Requires finalize_deterministic_order() first on the in-RAM path.
  template <typename T, typename Fn>
  void for_each_row(Fn&& fn, FieldMask<T> fields = FieldMask<T>::All()) const {
    RowReader<T> reader(*this, fields);
    std::vector<T> buffer;
    for (std::span<const T> batch; !(batch = reader.read(buffer)).empty();) {
      repository_detail::EachRow(batch, fn);
    }
  }

  /// Row count of kind T, resident, spilled, or column-backed.
  template <typename T>
  [[nodiscard]] std::size_t row_count() const;

  // Named accessors kept for the analysis layer's readability.
  [[nodiscard]] const std::vector<HeartbeatRun>& heartbeat_runs() const {
    return rows<HeartbeatRun>();
  }
  [[nodiscard]] const std::vector<UptimeRecord>& uptime() const { return rows<UptimeRecord>(); }
  [[nodiscard]] const std::vector<CapacityRecord>& capacity() const {
    return rows<CapacityRecord>();
  }
  [[nodiscard]] const std::vector<DeviceCountRecord>& device_counts() const {
    return rows<DeviceCountRecord>();
  }
  [[nodiscard]] const std::vector<WifiScanRecord>& wifi_scans() const {
    return rows<WifiScanRecord>();
  }
  [[nodiscard]] const std::vector<TrafficFlowRecord>& flows() const {
    return rows<TrafficFlowRecord>();
  }
  [[nodiscard]] const std::vector<ThroughputMinute>& throughput() const {
    return rows<ThroughputMinute>();
  }
  [[nodiscard]] const std::vector<DnsLogRecord>& dns() const { return rows<DnsLogRecord>(); }
  [[nodiscard]] const std::vector<DeviceTrafficRecord>& device_traffic() const {
    return rows<DeviceTrafficRecord>();
  }

  /// One home's heartbeat runs in canonical order (a copy; one full read
  /// of the data set per call).
  [[nodiscard]] std::vector<HeartbeatRun> heartbeat_runs_for(HomeId id) const;

  /// Rows across every data set, resident, spilled, or column-backed.
  [[nodiscard]] std::size_t total_rows() const;

  /// Summary row counts per data set (the Table 2 bench prints these).
  struct Counts {
    std::size_t heartbeat_runs, uptime, capacity, device_counts, wifi_scans, flows,
        throughput_minutes, dns, device_traffic, cgn_events;
  };
  [[nodiscard]] Counts counts() const;

 private:
  DatasetWindows windows_;
  std::mutex commit_mu_;
  std::vector<HomeInfo> homes_;
  RecordStore store_;
  // Const reads still reach a non-const SpillDir through spill(): a merge
  // flushes its logs, opens the shared read descriptors and counts what it
  // reads.
  std::unique_ptr<SpillDir> spill_;
  std::shared_ptr<const ColumnSnapshot> columns_;
};

/// Rows per RowReader batch.
inline constexpr std::size_t kReadBatchRows = 4096;

/// The one reader of a repository's rows: kind T in canonical order, in
/// batches, whichever the backing. Resident rows are handed out in place.
/// A spilled kind is k-way merged in one level; construction flushes the
/// logs and opens one cursor per section (collect/spill.h). A column-backed
/// kind is decoded stripe by stripe into the caller's buffer, and only the
/// `fields` a reader names are checked and decoded: the other members of
/// its rows are value-initialized. Resident and spilled rows are whole
/// already, so those arms ignore the mask. Defined in repository.cpp, with
/// one explicit instantiation per kind.
template <typename T>
class RowReader {
 public:
  /// Every row of kind T. `repo` must be finalised and outlive the reader.
  explicit RowReader(const DataRepository& repo, FieldMask<T> fields = FieldMask<T>::All());
  /// Only stripe `stripe` of kind T of a column-backed repository: the
  /// unit of per-stripe parallel scans.
  RowReader(const DataRepository& repo, std::size_t stripe,
            FieldMask<T> fields = FieldMask<T>::All());
  ~RowReader();
  RowReader(const RowReader&) = delete;
  RowReader& operator=(const RowReader&) = delete;

  /// The next batch: kReadBatchRows rows, fewer in the last one, none once
  /// exhausted. Resident rows are a view of the repository; other rows are
  /// decoded into `buffer` (its contents replaced) and live there.
  std::span<const T> read(std::vector<T>& buffer);

 private:
  const std::vector<T>* resident_{nullptr};
  std::size_t resident_next_{0};
  std::unique_ptr<SpilledRowStream<T>> spilled_;
  const ColumnSnapshot* columns_{nullptr};
  FieldMask<T> fields_;
  std::size_t stripe_{0};  // next stripe to decode, and the end of the range
  std::size_t stripe_end_{0};
  std::uint64_t stripe_row_{0};
};

}  // namespace bismark::collect
