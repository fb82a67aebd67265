#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/csv.h"
#include "core/table.h"

namespace bismark {
namespace {

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  const std::string out = t.render();
  // Header, separator, two rows.
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  // Columns align: "value" header starts at the same offset in all lines.
  std::istringstream stream(out);
  std::string header, sep, row1, row2;
  std::getline(stream, header);
  std::getline(stream, sep);
  std::getline(stream, row1);
  std::getline(stream, row2);
  EXPECT_EQ(header.find("value"), row2.find("22"));
}

TEST(TextTableTest, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW(t.render());
}

TEST(TextTableTest, Formatters) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Pct(0.382, 1), "38.2%");
  EXPECT_EQ(TextTable::Int(1234), "1234");
}

TEST(CsvWriterTest, PlainRow) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.write_row({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
  EXPECT_EQ(csv.rows_written(), 1u);
}

TEST(CsvWriterTest, EscapesSpecials) {
  EXPECT_EQ(CsvWriter::Escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::Escape("has,comma"), "\"has,comma\"");
  EXPECT_EQ(CsvWriter::Escape("has\"quote"), "\"has\"\"quote\"");
  EXPECT_EQ(CsvWriter::Escape("has\nnewline"), "\"has\nnewline\"");
  EXPECT_EQ(CsvWriter::Escape("has\rreturn"), "\"has\rreturn\"");
}

TEST(CsvWriterTest, QuotedRowRoundTrip) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.write_row({"x,y", "z"});
  EXPECT_EQ(out.str(), "\"x,y\",z\n");
}

// Integer cells are written in place beside scanned text cells, with the
// digits std::to_string gives, at both ends of the 64-bit ranges.
TEST(CsvWriterTest, IntegerCells) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.integer(-42);
  csv.integer(0);
  csv.cell("a,\"b\"");
  csv.integer(std::numeric_limits<std::int64_t>::min());
  csv.integer(std::numeric_limits<std::uint64_t>::max());
  csv.integer(std::uint16_t{65535});
  csv.end_row();
  csv.integer(7);  // a row that opens with an integer gets no leading comma
  csv.cell("z");
  csv.end_row();
  EXPECT_EQ(out.str(),
            "-42,0,\"a,\"\"b\"\"\",-9223372036854775808,18446744073709551615,65535\n7,z\n");
  EXPECT_EQ(csv.rows_written(), 2u);

  // Through a chunk sink, the row that straddles the 64 KiB mark goes out
  // whole in the first chunk, and every byte arrives once, in order.
  std::string sunk;
  std::vector<std::size_t> chunks;
  CsvWriter chunked([&](std::string_view bytes) {
    sunk.append(bytes);
    chunks.push_back(bytes.size());
  });
  std::string expected;
  std::size_t straddler_end = 0;  // where the row over the 64 KiB mark ends
  for (std::int64_t i = 0; expected.size() < 2 * CsvWriter::kChunkBytes; ++i) {
    const std::int64_t negative = -i * 1'000'003;
    const std::uint64_t large = std::numeric_limits<std::uint64_t>::max() - static_cast<std::uint64_t>(i);
    chunked.integer(i);
    chunked.integer(negative);
    chunked.cell("x\"y");
    chunked.integer(large);
    chunked.end_row();
    const std::size_t start = expected.size();
    expected += std::to_string(i) + "," + std::to_string(negative) + ",\"x\"\"y\"," +
                std::to_string(large) + "\n";
    if (start < CsvWriter::kChunkBytes && expected.size() > CsvWriter::kChunkBytes) {
      straddler_end = expected.size();
    }
  }
  chunked.flush();
  ASSERT_GT(straddler_end, 0u) << "no row straddles the 64 KiB mark";
  EXPECT_EQ(sunk, expected);
  ASSERT_GE(chunks.size(), 2u);
  EXPECT_EQ(chunks[0], straddler_end);
}

}  // namespace
}  // namespace bismark
