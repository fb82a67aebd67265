// Write-side interface to the collection system.
//
// Everything that *produces* records — the collection server, the firmware
// services, the gateway's passive monitor — writes through this interface
// rather than against the concrete DataRepository. That indirection is what
// lets the sharded deployment runner point each worker at a private staging
// buffer (collect::IngestBatch) and merge the shards deterministically
// afterwards, while single-threaded callers keep handing a DataRepository
// straight to the producers.
//
// The dispatch surface is add_record(Record) plus a bulk add_records()
// that defaults to it, so a sink implementation covers every record kind
// by construction — a new entry in RecordTypes reaches every sink without
// touching them. The named add_* entry points are non-virtual
// conveniences over add_record.
#pragma once

#include <utility>
#include <vector>

#include "collect/schema.h"

namespace bismark::collect {

class RecordSink {
 public:
  virtual ~RecordSink() = default;

  /// The single dispatch point: every producer path funnels through here.
  virtual void add_record(Record r) = 0;

  /// Bulk entry point for staged producers (the collection server's
  /// heartbeat runs, the collector's ingest gate): one virtual dispatch
  /// per batch instead of one per record. The default forwards
  /// record-by-record; sinks with native bulk storage (IngestBatch,
  /// DataRepository) override it.
  virtual void add_records(std::vector<Record> records) {
    for (Record& r : records) add_record(std::move(r));
  }

  /// Typed convenience: wraps the record into the variant.
  template <typename T>
  void add(T rec) {
    add_record(Record(std::in_place_type<T>, std::move(rec)));
  }

  // Named entry points kept for producer-code readability.
  void add_heartbeat_run(HeartbeatRun run) { add(std::move(run)); }
  void add_uptime(UptimeRecord rec) { add(std::move(rec)); }
  void add_capacity(CapacityRecord rec) { add(std::move(rec)); }
  void add_device_count(DeviceCountRecord rec) { add(std::move(rec)); }
  void add_wifi_scan(WifiScanRecord rec) { add(std::move(rec)); }
  void add_flow(TrafficFlowRecord rec) { add(std::move(rec)); }
  void add_throughput_minute(ThroughputMinute rec) { add(std::move(rec)); }
  void add_dns(DnsLogRecord rec) { add(std::move(rec)); }
  void add_device_traffic(DeviceTrafficRecord rec) { add(std::move(rec)); }
  void add_cgn_event(CgnEventRecord rec) { add(std::move(rec)); }
};

}  // namespace bismark::collect
