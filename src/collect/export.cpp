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

template <typename T, CsvView V>
void WriteHeader(CsvWriter& csv) {
  if constexpr (V == CsvView::kRelease) {
    for (const auto& c : Schema<T>::Release()) csv.cell(c.name);
  } else {
    std::apply([&csv](const auto&... field) { (csv.cell(field.name), ...); },
               Schema<T>::Fields());
  }
  csv.end_row();
}

/// The release view comes from Schema<T>::Release(), byte-identical to the
/// original per-dataset exporters; the full view encodes every field with
/// its exact codec.
template <typename T, CsvView V>
void WriteRows(CsvWriter& csv, std::span<const T> rows) {
  for (const T& r : rows) {
    if constexpr (V == CsvView::kRelease) {
      for (const auto& c : Schema<T>::Release()) csv.cell(c.encode(r));
    } else {
      std::apply(
          [&csv, &r](const auto&... field) { (csv.cell(CsvEncode(r.*(field.member))), ...); },
          Schema<T>::Fields());
    }
    csv.end_row();
  }
}

/// One kind's CSV into a stream, as a one-output finish pass.
template <typename T, CsvView V>
std::size_t ExportToStream(const DataRepository& repo, std::ostream& out) {
  CsvWriter csv(out);
  WriteHeader<T, V>(csv);
  FinishPass pass(repo, 1);
  pass.add<T>([&csv](std::span<const T> rows) { WriteRows<T, V>(csv, rows); });
  pass.run();
  return csv.rows_written() - 1;
}

[[noreturn]] void Fail(const std::string& why) { throw std::runtime_error("export: " + why); }

}  // namespace

std::size_t ExportHeartbeats(const DataRepository& repo, std::ostream& out) {
  return ExportToStream<HeartbeatRun, CsvView::kRelease>(repo, out);
}
std::size_t ExportUptime(const DataRepository& repo, std::ostream& out) {
  return ExportToStream<UptimeRecord, CsvView::kRelease>(repo, out);
}
std::size_t ExportCapacity(const DataRepository& repo, std::ostream& out) {
  return ExportToStream<CapacityRecord, CsvView::kRelease>(repo, out);
}
std::size_t ExportDevices(const DataRepository& repo, std::ostream& out) {
  return ExportToStream<DeviceCountRecord, CsvView::kRelease>(repo, out);
}
std::size_t ExportWifi(const DataRepository& repo, std::ostream& out) {
  return ExportToStream<WifiScanRecord, CsvView::kRelease>(repo, out);
}
std::size_t ExportTrafficFlows(const DataRepository& repo, std::ostream& out) {
  return ExportToStream<TrafficFlowRecord, CsvView::kRelease>(repo, out);
}

template <typename T>
std::size_t ExportDatasetCsv(const DataRepository& repo, std::ostream& out) {
  return ExportToStream<T, CsvView::kFull>(repo, out);
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
  const auto add = [&]<typename T, CsvView V>() {
    File& file = *files_.emplace_back(
        std::make_unique<File>((fs::path(directory) / Schema<T>::kCsvFile).string()));
    WriteHeader<T, V>(file.csv);
    pass.add<T>([&file](std::span<const T> rows) { WriteRows<T, V>(file.csv, rows); },
                [&file] { file.close(); });
  };
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    if (view == CsvView::kFull) {
      add.template operator()<T, CsvView::kFull>();
    } else if constexpr (Schema<T>::kHasRelease && Schema<T>::kPublicRelease) {
      add.template operator()<T, CsvView::kRelease>();
    }
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
