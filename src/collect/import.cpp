#include "collect/import.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

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

/// Generic record-by-record driver: checks the header then hands each data
/// row (already split into fields) to `row_fn`, which returns false on a
/// malformed row.
template <typename RowFn>
std::size_t Drive(std::istream& in, const std::string& file, const std::string& expected_header,
                  ImportReport& report, RowFn row_fn) {
  std::string record;
  if (!ReadCsvRecord(in, record)) {
    AddError(report, file, 0, "empty file");
    return 0;
  }
  if (record != expected_header) {
    AddError(report, file, 1, "unexpected header: " + record);
    return 0;
  }
  std::size_t imported = 0;
  std::size_t line_no = 1;
  while (ReadCsvRecord(in, record)) {
    const std::size_t first_line = line_no + 1;
    line_no = first_line + static_cast<std::size_t>(
                               std::count(record.begin(), record.end(), '\n'));
    if (record.empty()) continue;
    if (row_fn(ParseCsvLine(record))) {
      ++imported;
    } else {
      AddError(report, file, first_line, "malformed row");
    }
  }
  return imported;
}

/// Release-view import generated from Schema<T>::Release().
template <typename T>
std::size_t DriveReleaseCsv(DataRepository& repo, std::istream& in, ImportReport& report) {
  const auto& cols = Schema<T>::Release();
  std::string header;
  for (const auto& c : cols) {
    if (!header.empty()) header += ',';
    header += c.name;
  }
  const std::size_t n =
      Drive(in, Schema<T>::kCsvFile, header, report, [&](const std::vector<std::string>& f) {
        if (f.size() != cols.size()) return false;
        T rec{};
        for (std::size_t i = 0; i < cols.size(); ++i) {
          if (!cols[i].decode(f[i], rec)) return false;
        }
        repo.add(std::move(rec));
        return true;
      });
  report.by_kind[kRecordIndexOf<T>] += n;
  return n;
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
  return DriveReleaseCsv<HeartbeatRun>(repo, in, report);
}
std::size_t ImportUptime(DataRepository& repo, std::istream& in, ImportReport& report) {
  return DriveReleaseCsv<UptimeRecord>(repo, in, report);
}
std::size_t ImportCapacity(DataRepository& repo, std::istream& in, ImportReport& report) {
  return DriveReleaseCsv<CapacityRecord>(repo, in, report);
}
std::size_t ImportDevices(DataRepository& repo, std::istream& in, ImportReport& report) {
  return DriveReleaseCsv<DeviceCountRecord>(repo, in, report);
}
std::size_t ImportWifi(DataRepository& repo, std::istream& in, ImportReport& report) {
  return DriveReleaseCsv<WifiScanRecord>(repo, in, report);
}

template <typename T>
std::size_t ImportDatasetCsv(DataRepository& repo, std::istream& in, ImportReport& report) {
  const std::size_t n = Drive(
      in, Schema<T>::kCsvFile, CsvHeader<T>(), report, [&](const std::vector<std::string>& f) {
        constexpr std::size_t kFields = std::tuple_size_v<decltype(Schema<T>::Fields())>;
        if (f.size() != kFields) return false;
        T rec{};
        bool ok = true;
        std::size_t i = 0;
        std::apply(
            [&](const auto&... field) {
              ((ok = ok && CsvDecode(f[i++], rec.*(field.member))), ...);
            },
            Schema<T>::Fields());
        if (!ok) return false;
        repo.add(std::move(rec));
        return true;
      });
  report.by_kind[kRecordIndexOf<T>] += n;
  return n;
}

// One instantiation per registered record kind.
#define BISMARK_IMPORT_INSTANTIATE(T) \
  template std::size_t ImportDatasetCsv<T>(DataRepository&, std::istream&, ImportReport&);
BISMARK_FOR_EACH_RECORD_KIND(BISMARK_IMPORT_INSTANTIATE)
#undef BISMARK_IMPORT_INSTANTIATE

namespace {
template <typename ImportFn>
void ImportFileInto(ImportReport& report, const std::string& directory, const char* file,
                    ImportFn import_fn) {
  namespace fs = std::filesystem;
  const fs::path path = fs::path(directory) / file;
  std::ifstream in(path);
  if (!in) {
    AddError(report, file, 0, "cannot open " + path.string());
    return;
  }
  import_fn(in);
}
}  // namespace

ImportReport ImportPublicDatasets(DataRepository& repo, const std::string& directory) {
  ImportReport report;
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    if constexpr (Schema<T>::kHasRelease && Schema<T>::kPublicRelease) {
      ImportFileInto(report, directory, Schema<T>::kCsvFile,
                     [&](std::istream& in) { DriveReleaseCsv<T>(repo, in, report); });
    }
  });
  return report;
}

ImportReport ImportAllDatasets(DataRepository& repo, const std::string& directory) {
  ImportReport report;
  ForEachRecordType([&](auto tag) {
    using T = typename decltype(tag)::type;
    ImportFileInto(report, directory, Schema<T>::kCsvFile,
                   [&](std::istream& in) { ImportDatasetCsv<T>(repo, in, report); });
  });
  return report;
}

}  // namespace bismark::collect
