#include "collect/export.h"

#include <filesystem>
#include <span>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "core/csv.h"
#include "core/io.h"

namespace bismark::collect {

namespace {

/// The header row of a column list (collect/schema.h).
template <typename Columns>
void WriteHeader(CsvWriter& csv, const Columns& columns) {
  std::apply([&csv](const auto&... col) { (csv.cell(col.name), ...); }, columns);
  csv.end_row();
}

/// One CSV row per record, one cell per column.
template <typename T, typename Columns>
void WriteRows(CsvWriter& csv, const Columns& columns, std::span<const T> rows) {
  for (const T& r : rows) {
    std::apply([&csv, &r](const auto&... col) { (col.write(csv, r), ...); }, columns);
    csv.end_row();
  }
}

/// One kind's CSV into a stream, as a one-output finish pass.
template <typename T, typename Columns>
std::size_t ExportToStream(const DataRepository& repo, std::ostream& out,
                           const Columns& columns) {
  CsvWriter csv(out);
  WriteHeader(csv, columns);
  FinishPass pass(repo, 1);
  pass.add<T>([&](std::span<const T> rows) { WriteRows(csv, columns, rows); });
  pass.run();
  return csv.rows_written() - 1;
}

[[noreturn]] void Fail(const std::string& why) { throw std::runtime_error("export: " + why); }

}  // namespace

std::size_t ExportHeartbeats(const DataRepository& repo, std::ostream& out) {
  return ExportToStream<HeartbeatRun>(repo, out, Schema<HeartbeatRun>::Release());
}
std::size_t ExportUptime(const DataRepository& repo, std::ostream& out) {
  return ExportToStream<UptimeRecord>(repo, out, Schema<UptimeRecord>::Release());
}
std::size_t ExportCapacity(const DataRepository& repo, std::ostream& out) {
  return ExportToStream<CapacityRecord>(repo, out, Schema<CapacityRecord>::Release());
}
std::size_t ExportDevices(const DataRepository& repo, std::ostream& out) {
  return ExportToStream<DeviceCountRecord>(repo, out, Schema<DeviceCountRecord>::Release());
}
std::size_t ExportWifi(const DataRepository& repo, std::ostream& out) {
  return ExportToStream<WifiScanRecord>(repo, out, Schema<WifiScanRecord>::Release());
}
std::size_t ExportTrafficFlows(const DataRepository& repo, std::ostream& out) {
  return ExportToStream<TrafficFlowRecord>(repo, out, Schema<TrafficFlowRecord>::Release());
}

template <typename T>
std::size_t ExportDatasetCsv(const DataRepository& repo, std::ostream& out) {
  return ExportToStream<T>(repo, out, Schema<T>::Fields());
}

// One instantiation per registered record kind.
#define BISMARK_EXPORT_INSTANTIATE(T) \
  template std::size_t ExportDatasetCsv<T>(const DataRepository&, std::ostream&);
BISMARK_FOR_EACH_RECORD_KIND(BISMARK_EXPORT_INSTANTIATE)
#undef BISMARK_EXPORT_INSTANTIATE

/// One CSV file: a CsvWriter whose chunks go through a CheckedFile. Members
/// are destroyed writer first, so an abandoned file still gets its bytes.
struct CsvExport::File {
  explicit File(const std::string& path) {
    if (!out.open(path)) Fail("cannot open " + out.error());
  }

  void close() {
    csv.flush();
    if (!out.close()) Fail(out.error());
  }

  core::CheckedFile out;
  CsvWriter csv{[this](std::string_view bytes) {
    if (!out.write(bytes.data(), bytes.size())) Fail(out.error());
  }};
};

CsvExport::CsvExport(FinishPass& pass, const std::string& directory, CsvView view) {
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  ForEachCsvFile(view, [&]<typename T>(TypeTag<T>, const auto& columns) {
    File& file = *files_.emplace_back(
        std::make_unique<File>((fs::path(directory) / Schema<T>::kCsvFile).string()));
    WriteHeader(file.csv, columns);
    pass.add<T>([&file, columns](std::span<const T> rows) { WriteRows(file.csv, columns, rows); },
                [&file] { file.close(); });
  });
}

CsvExport::~CsvExport() = default;

std::size_t CsvExport::rows() const {
  std::size_t total = 0;
  for (const auto& file : files_) total += file->csv.rows_written() - 1;
  return total;
}

std::size_t ExportPublicDatasets(const DataRepository& repo, const std::string& directory,
                                 std::size_t workers) {
  FinishPass pass(repo, workers);
  const CsvExport out(pass, directory, CsvView::kRelease);
  pass.run();
  return out.rows();
}

std::size_t ExportAllDatasets(const DataRepository& repo, const std::string& directory,
                              std::size_t workers) {
  FinishPass pass(repo, workers);
  const CsvExport out(pass, directory, CsvView::kFull);
  pass.run();
  return out.rows();
}

}  // namespace bismark::collect
