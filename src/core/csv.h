// Minimal CSV writer used when exporting the released datasets
// (the paper publishes everything without PII).
#pragma once

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace bismark {

/// Builds rows of a CSV file in one reusable buffer, quoting only the cells
/// that need it (commas, quotes, newlines). A stream sink receives each row
/// as it completes (the stream buffers); a chunk sink receives the buffer in
/// chunks of at least kChunkBytes, and the tail on flush().
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
  /// Terminate the current row.
  void end_row();
  /// Hand every buffered byte to the sink.
  void flush();

  [[nodiscard]] std::size_t rows_written() const { return rows_; }

  /// Escape a single cell per RFC 4180.
  static std::string Escape(const std::string& cell);

 private:
  Sink sink_;
  std::size_t chunk_bytes_{0};
  std::string buf_;
  bool row_open_{false};
  std::size_t rows_{0};
};

}  // namespace bismark
