#include "core/csv.h"

#include <utility>

namespace bismark {

namespace {

/// One plain pass over the cell: find_first_of would call memchr once per
/// character.
bool NeedsQuotes(std::string_view cell) {
  for (const char c : cell) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendQuoted(std::string& out, std::string_view cell) {
  out += '"';
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

}  // namespace

CsvWriter::CsvWriter(std::ostream& out)
    : sink_([&out](std::string_view bytes) {
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      }),
      chunk_bytes_(0) {}

CsvWriter::CsvWriter(Sink sink) : sink_(std::move(sink)), chunk_bytes_(kChunkBytes) {
  buf_.reserve(2 * kChunkBytes);
}

CsvWriter::~CsvWriter() {
  try {
    flush();
  } catch (...) {
    // A throwing sink already reported through an explicit flush(), or the
    // writer is being unwound by that very exception.
  }
}

std::string CsvWriter::Escape(const std::string& cell) {
  if (!NeedsQuotes(cell)) return cell;
  std::string out;
  AppendQuoted(out, cell);
  return out;
}

void CsvWriter::cell(std::string_view value) {
  if (row_open_) buf_ += ',';
  row_open_ = true;
  if (NeedsQuotes(value)) {
    AppendQuoted(buf_, value);
  } else {
    buf_.append(value);
  }
}

void CsvWriter::end_row() {
  buf_ += '\n';
  row_open_ = false;
  ++rows_;
  if (buf_.size() >= chunk_bytes_) flush();
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (const std::string& c : cells) cell(c);
  end_row();
}

void CsvWriter::flush() {
  if (buf_.empty()) return;
  // Cleared even when the sink throws, so no byte is handed over twice.
  struct Clear {
    std::string& buf;
    ~Clear() { buf.clear(); }
  } clear{buf_};
  sink_(buf_);
}

}  // namespace bismark
