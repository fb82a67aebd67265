#include "core/csv.h"

#include <algorithm>
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

/// Write `cell` quoted, its quotes doubled, at `out` (room for 2 + 2 x its
/// size); returns the end.
char* WriteQuoted(char* out, std::string_view cell) {
  *out++ = '"';
  for (const char c : cell) {
    if (c == '"') *out++ = '"';
    *out++ = c;
  }
  *out++ = '"';
  return out;
}

}  // namespace

CsvWriter::CsvWriter(std::ostream& out)
    : sink_([&out](std::string_view bytes) {
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      }),
      chunk_bytes_(0) {}

CsvWriter::CsvWriter(Sink sink) : sink_(std::move(sink)), chunk_bytes_(kChunkBytes) {
  buf_.resize(2 * kChunkBytes);
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
  std::string out(2 + 2 * cell.size(), '\0');
  out.resize(static_cast<std::size_t>(WriteQuoted(out.data(), cell) - out.data()));
  return out;
}

void CsvWriter::cell(std::string_view value) {
  const bool quoted = NeedsQuotes(value);
  char* out = reserve(1 + (quoted ? 2 + 2 * value.size() : value.size()));
  if (row_open_) *out++ = ',';
  row_open_ = true;
  out = quoted ? WriteQuoted(out, value) : std::copy(value.begin(), value.end(), out);
  used_ = static_cast<std::size_t>(out - buf_.data());
}

void CsvWriter::end_row() {
  *reserve(1) = '\n';
  ++used_;
  row_open_ = false;
  ++rows_;
  if (used_ >= chunk_bytes_) flush();
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (const std::string& c : cells) cell(c);
  end_row();
}

void CsvWriter::flush() {
  if (used_ == 0) return;
  // Cleared even when the sink throws, so no byte is handed over twice.
  struct Clear {
    std::size_t& used;
    ~Clear() { used = 0; }
  } clear{used_};
  sink_(std::string_view(buf_.data(), used_));
}

}  // namespace bismark
