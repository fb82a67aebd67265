// CSV import generated from the schema layer — the consumer side of
// ExportPublicDatasets and ExportAllDatasets.
//
// The paper releases every non-PII data set; anyone reproducing its
// availability/infrastructure analyses works from those CSVs, not from the
// routers. This importer reads the five public files back into a
// DataRepository so the entire analysis layer runs unchanged on released
// data (and so the release round-trips losslessly — tested). The
// full-fidelity importer (`ImportAllDatasets`) reads the exact-codec
// export of every data set and reproduces a repository bit-for-bit.
//
// Both views go through one row importer over the view's column list
// (collect/schema.h): the header must name the columns, and each cell is
// decoded by its column's codec. Rows go through the repository's window
// admission like any ingest; only kept rows are counted, and the rows the
// windows drop are reported as one error per file.
#pragma once

#include <array>
#include <istream>
#include <string>
#include <vector>

#include "collect/repository.h"

namespace bismark::collect {

/// Outcome of an import: per-kind counts of the rows kept, and errors for
/// malformed lines and for rows outside the repository's windows. Counts
/// are indexed by variant kind (kRecordIndexOf<T>), so a new record type
/// gets a slot without touching this struct.
struct ImportReport {
  std::array<std::size_t, kRecordKinds> by_kind{};
  std::vector<std::string> errors;  // "file:line: reason", capped

  template <typename T>
  [[nodiscard]] std::size_t rows() const {
    return by_kind[kRecordIndexOf<T>];
  }

  [[nodiscard]] bool ok() const { return errors.empty(); }
  [[nodiscard]] std::size_t total_rows() const {
    std::size_t total = 0;
    for (const auto n : by_kind) total += n;
    return total;
  }
};

/// Parse one CSV record into fields (RFC 4180 quoting; the record may
/// contain embedded newlines inside quoted fields).
[[nodiscard]] std::vector<std::string> ParseCsvLine(const std::string& line);

/// Read one logical CSV record from a stream: strips the trailing CR of
/// CRLF-terminated lines and keeps reading physical lines while a quoted
/// field is still open, so embedded newlines survive. Returns false at end
/// of stream.
bool ReadCsvRecord(std::istream& in, std::string& record);

/// Per-dataset release-view importers; each expects the exporter's header.
std::size_t ImportHeartbeats(DataRepository& repo, std::istream& in, ImportReport& report);
std::size_t ImportUptime(DataRepository& repo, std::istream& in, ImportReport& report);
std::size_t ImportCapacity(DataRepository& repo, std::istream& in, ImportReport& report);
std::size_t ImportDevices(DataRepository& repo, std::istream& in, ImportReport& report);
std::size_t ImportWifi(DataRepository& repo, std::istream& in, ImportReport& report);

/// Schema-generated full-fidelity importer for one data set (the
/// ExportDatasetCsv format: every field, exact codecs).
template <typename T>
std::size_t ImportDatasetCsv(DataRepository& repo, std::istream& in, ImportReport& report);

/// Read the five public CSVs from `directory` (as written by
/// ExportPublicDatasets) into `repo`. Missing files are recorded as errors;
/// present files are imported. Home metadata (country, region) is NOT part
/// of the public release, so callers needing regional splits must register
/// HomeInfo rows separately — exactly the constraint real consumers of the
/// release face.
ImportReport ImportPublicDatasets(DataRepository& repo, const std::string& directory);

/// Register a bare HomeInfo for every home an imported public release holds
/// heartbeat runs or device counts for: country "??" (the release names
/// none) and `reports_devices`, so the per-home analyses run. Returns the
/// number of homes registered.
std::size_t RegisterReleaseHomes(DataRepository& repo);

/// Read every kind's full-fidelity CSV from `directory` (as written by
/// ExportAllDatasets) into `repo`.
ImportReport ImportAllDatasets(DataRepository& repo, const std::string& directory);

}  // namespace bismark::collect
