#include <gtest/gtest.h>

#include <sstream>

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

}  // namespace
}  // namespace bismark
