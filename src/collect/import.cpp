#include "collect/import.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <tuple>

namespace bismark::collect {

namespace {
constexpr std::size_t kMaxErrors = 20;

void AddError(ImportReport& report, const std::string& file, std::size_t line,
              const std::string& reason) {
  if (report.errors.size() < kMaxErrors) {
    report.errors.push_back(file + ":" + std::to_string(line) + ": " + reason);
  }
}

std::size_t CountQuotes(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '"'));
}

/// The one row importer: checks that the header names `columns`, then
/// decodes each record column by column into `repo`. A malformed row is an
/// error at its line; rows the repository's windows drop are counted in one
/// error for the file. Only kept rows count as imported.
template <typename T, typename Columns>
std::size_t ImportCsv(DataRepository& repo, std::istream& in, const Columns& columns,
                      ImportReport& report) {
  const std::string file = Schema<T>::kCsvFile;
  std::string record;
  if (!ReadCsvRecord(in, record)) {
    AddError(report, file, 0, "empty file");
    return 0;
  }
  if (record != CsvHeader(columns)) {
    AddError(report, file, 1, "unexpected header: " + record);
    return 0;
  }
  std::size_t imported = 0;
  std::size_t outside = 0;
  std::size_t line_no = 1;
  while (ReadCsvRecord(in, record)) {
    const std::size_t first_line = line_no + 1;
    line_no = first_line + static_cast<std::size_t>(
                               std::count(record.begin(), record.end(), '\n'));
    if (record.empty()) continue;
    const std::vector<std::string> cells = ParseCsvLine(record);
    T rec{};
    bool ok = cells.size() == std::tuple_size_v<Columns>;
    std::size_t i = 0;
    std::apply([&](const auto&... col) { ((ok = ok && col.decode(cells[i++], rec)), ...); },
               columns);
    if (!ok) {
      AddError(report, file, first_line, "malformed row");
    } else if (repo.admit(std::move(rec))) {
      ++imported;
    } else {
      ++outside;
    }
  }
  if (outside != 0) {
    AddError(report, file, 0,
             "skipped " + std::to_string(outside) +
                 " rows outside the repository's collection windows");
  }
  report.by_kind[kRecordIndexOf<T>] += imported;
  return imported;
}

/// Every file of one view from `directory`; a file that cannot be opened
/// is an error.
ImportReport ImportDirectory(DataRepository& repo, const std::string& directory, CsvView view) {
  namespace fs = std::filesystem;
  ImportReport report;
  ForEachCsvFile(view, [&]<typename T>(TypeTag<T>, const auto& columns) {
    const fs::path path = fs::path(directory) / Schema<T>::kCsvFile;
    std::ifstream in(path);
    if (!in) {
      AddError(report, Schema<T>::kCsvFile, 0, "cannot open " + path.string());
      return;
    }
    ImportCsv<T>(repo, in, columns, report);
  });
  return report;
}
}  // namespace

bool ReadCsvRecord(std::istream& in, std::string& record) {
  record.clear();
  std::string line;
  if (!std::getline(in, line)) return false;
  // RFC 4180 files terminate lines with CRLF; getline leaves the CR.
  const auto strip_cr = [](std::string& s) {
    if (!s.empty() && s.back() == '\r') s.pop_back();
  };
  strip_cr(line);
  record = std::move(line);
  // An odd number of quote characters means a quoted field is still open
  // across a line break (quotes only appear as field delimiters or doubled
  // escapes), so keep consuming physical lines.
  std::size_t quotes = CountQuotes(record);
  while (quotes % 2 == 1 && std::getline(in, line)) {
    strip_cr(line);
    record += '\n';
    record += line;
    quotes += CountQuotes(line);
  }
  return true;
}

std::vector<std::string> ParseCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

std::size_t ImportHeartbeats(DataRepository& repo, std::istream& in, ImportReport& report) {
  return ImportCsv<HeartbeatRun>(repo, in, Schema<HeartbeatRun>::Release(), report);
}
std::size_t ImportUptime(DataRepository& repo, std::istream& in, ImportReport& report) {
  return ImportCsv<UptimeRecord>(repo, in, Schema<UptimeRecord>::Release(), report);
}
std::size_t ImportCapacity(DataRepository& repo, std::istream& in, ImportReport& report) {
  return ImportCsv<CapacityRecord>(repo, in, Schema<CapacityRecord>::Release(), report);
}
std::size_t ImportDevices(DataRepository& repo, std::istream& in, ImportReport& report) {
  return ImportCsv<DeviceCountRecord>(repo, in, Schema<DeviceCountRecord>::Release(), report);
}
std::size_t ImportWifi(DataRepository& repo, std::istream& in, ImportReport& report) {
  return ImportCsv<WifiScanRecord>(repo, in, Schema<WifiScanRecord>::Release(), report);
}

template <typename T>
std::size_t ImportDatasetCsv(DataRepository& repo, std::istream& in, ImportReport& report) {
  return ImportCsv<T>(repo, in, Schema<T>::Fields(), report);
}

// One instantiation per registered record kind.
#define BISMARK_IMPORT_INSTANTIATE(T) \
  template std::size_t ImportDatasetCsv<T>(DataRepository&, std::istream&, ImportReport&);
BISMARK_FOR_EACH_RECORD_KIND(BISMARK_IMPORT_INSTANTIATE)
#undef BISMARK_IMPORT_INSTANTIATE

ImportReport ImportPublicDatasets(DataRepository& repo, const std::string& directory) {
  return ImportDirectory(repo, directory, CsvView::kRelease);
}

std::size_t RegisterReleaseHomes(DataRepository& repo) {
  std::set<int> ids;
  repo.for_each_row<HeartbeatRun>([&ids](const HeartbeatRun& run) { ids.insert(run.home.value); });
  repo.for_each_row<DeviceCountRecord>(
      [&ids](const DeviceCountRecord& rec) { ids.insert(rec.home.value); });
  for (const int id : ids) {
    repo.register_home(HomeInfo{.id = HomeId{id}, .country_code = "??", .reports_devices = true});
  }
  return ids.size();
}

ImportReport ImportAllDatasets(DataRepository& repo, const std::string& directory) {
  return ImportDirectory(repo, directory, CsvView::kFull);
}

}  // namespace bismark::collect
