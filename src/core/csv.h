// Minimal CSV writer used when exporting the released datasets
// (the paper publishes everything without PII).
#pragma once

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace bismark {

/// Builds rows of a CSV file in one reusable buffer, quoting only the text
/// cells that need it (commas, quotes, newlines); an integer cell never
/// needs quotes, so it is written in place, unscanned. A stream sink
/// receives each row as it completes (the stream buffers); a chunk sink
/// receives the buffer in chunks of at least kChunkBytes, and the tail on
/// flush().
class CsvWriter {
 public:
  using Sink = std::function<void(std::string_view)>;
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  explicit CsvWriter(std::ostream& out);
  explicit CsvWriter(Sink sink);
  /// Hands any buffered bytes to the sink. Exporters call flush()
  /// themselves so a failing sink throws there, not here.
  ~CsvWriter();
  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void write_row(const std::vector<std::string>& cells);
  /// Append one cell to the current row.
  void cell(std::string_view value);
  /// Append one integer cell to the current row: std::to_chars writes its
  /// digits straight into the row buffer, the bytes std::to_string gives.
  template <std::integral I>
  void integer(I value) {
    char* out = reserve(1 + kMaxIntegerChars);
    if (row_open_) *out++ = ',';
    row_open_ = true;
    out = std::to_chars(out, out + kMaxIntegerChars, value).ptr;
    used_ = static_cast<std::size_t>(out - buf_.data());
  }
  /// Terminate the current row.
  void end_row();
  /// Hand every buffered byte to the sink.
  void flush();

  [[nodiscard]] std::size_t rows_written() const { return rows_; }

  /// Escape a single cell per RFC 4180.
  static std::string Escape(const std::string& cell);

 private:
  /// The longest integer: "-9223372036854775808" and "18446744073709551615".
  static constexpr std::size_t kMaxIntegerChars = 20;

  /// Where the next `n` bytes go, past the pending ones; the caller sets
  /// used_ to the end of what it wrote.
  char* reserve(std::size_t n) {
    if (buf_.size() - used_ < n) buf_.resize(std::max(2 * buf_.size(), used_ + n));
    return buf_.data() + used_;
  }

  Sink sink_;
  std::size_t chunk_bytes_{0};
  std::string buf_;  // storage: its first used_ bytes are the pending rows
  std::size_t used_{0};
  bool row_open_{false};
  std::size_t rows_{0};
};

}  // namespace bismark
