// CSV export generated from the schema layer.
//
// Two views exist per data set, each one column list in collect/schema.h:
//
//  * The *release* view (Schema<T>::Release()) — the historical public CSV
//    formats, byte-identical to the original hand-written exporters: schema
//    fields with their exact codecs, plus hand-written codecs for the four
//    lossy or derived columns (heartbeats, uptime_s, down_mbps, up_mbps).
//    The paper releases everything except the Traffic data set (Section
//    3.2): Heartbeats, Uptime, Capacity, Devices and WiFi go out; Traffic
//    stays private. `ExportPublicDatasets` writes exactly the kinds with
//    Schema<T>::kPublicRelease; `ExportTrafficFlows` exists for consented
//    internal use and only ever writes the anonymised forms.
//
//  * The *full-fidelity* view (Schema<T>::Fields()) — every field with
//    lossless codecs, for every data set. `ExportAllDatasets` +
//    `ImportAllDatasets` reproduce a repository exactly (tested), which is
//    what archival hand-off between studies uses when the columnar
//    snapshot (collect/column_snapshot.h) is not wanted.
//
// Both views go through one header writer and one row writer over a
// column list; CsvView (collect/schema.h) only picks the list.
#pragma once

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "collect/finish.h"
#include "collect/repository.h"

namespace bismark::collect {

/// Write one data set's release view as CSV to a stream. Returns rows
/// written (excluding the header).
std::size_t ExportHeartbeats(const DataRepository& repo, std::ostream& out);
std::size_t ExportUptime(const DataRepository& repo, std::ostream& out);
std::size_t ExportCapacity(const DataRepository& repo, std::ostream& out);
std::size_t ExportDevices(const DataRepository& repo, std::ostream& out);
std::size_t ExportWifi(const DataRepository& repo, std::ostream& out);
/// Anonymised traffic flows — PII-bearing, not part of the public release.
std::size_t ExportTrafficFlows(const DataRepository& repo, std::ostream& out);

/// CSV files fed by a finish pass (collect/finish.h): the five public data
/// sets' release view (heartbeats.csv, uptime.csv, capacity.csv,
/// devices.csv, wifi.csv), or every kind's full-fidelity view, one
/// Schema<T>::kCsvFile per kind, in `directory` (created if needed). Each
/// file is written through core::CheckedFile: a failed open, write, flush
/// or close throws std::runtime_error with the path and errno, from the
/// constructor or out of FinishPass::run(). There is no fsync. A pass
/// whose CsvExport failed to construct must not be run.
class CsvExport {
 public:
  CsvExport(FinishPass& pass, const std::string& directory, CsvView view);
  ~CsvExport();
  CsvExport(const CsvExport&) = delete;
  CsvExport& operator=(const CsvExport&) = delete;

  /// Rows written across every file (headers excluded), once the pass ran.
  [[nodiscard]] std::size_t rows() const;

 private:
  struct File;
  std::vector<std::unique_ptr<File>> files_;
};

/// Write the five public data sets into `directory` (created if needed) as
/// heartbeats.csv, uptime.csv, capacity.csv, devices.csv, wifi.csv.
/// Returns total rows written; throws std::runtime_error on I/O failure.
/// A finish pass with one output: `workers` > 1 writes kinds concurrently,
/// with byte-identical files at any worker count.
std::size_t ExportPublicDatasets(const DataRepository& repo, const std::string& directory,
                                 std::size_t workers = 1);

/// Schema-generated full-fidelity export of one data set: every field, in
/// Schema<T>::Fields() order, with exact codecs. Returns rows written.
template <typename T>
std::size_t ExportDatasetCsv(const DataRepository& repo, std::ostream& out);

/// Full-fidelity export of all registered data sets into `directory`
/// (created if needed), one Schema<T>::kCsvFile per kind. Returns total
/// rows written; throws std::runtime_error on I/O failure. `workers` > 1
/// exports kinds concurrently with byte-identical per-file output.
std::size_t ExportAllDatasets(const DataRepository& repo, const std::string& directory,
                              std::size_t workers = 1);

}  // namespace bismark::collect
