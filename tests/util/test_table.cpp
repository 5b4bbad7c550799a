#include "util/table.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace nashlb::util {
namespace {

TEST(Table, RendersHeaderRuleAndRows) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  const std::string out = t.str();
  EXPECT_NE(out.find("a  bb"), std::string::npos) << out;
  EXPECT_NE(out.find("-  --"), std::string::npos) << out;
  EXPECT_NE(out.find("1   2"), std::string::npos) << out;
}

TEST(Table, RightAlignsByDefault) {
  Table t({"col"});
  t.add_row({"x"});
  // width 3 -> two leading spaces before "x"
  EXPECT_NE(t.str().find("  x"), std::string::npos);
}

TEST(Table, ColumnWidthTracksWidestCell) {
  Table t({"h"});
  t.add_row({"wide-cell"});
  t.add_row({"x"});
  const std::string out = t.str();
  EXPECT_NE(out.find("wide-cell"), std::string::npos);
  EXPECT_NE(out.find("---------"), std::string::npos);
}

TEST(Table, ArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RowCountTracksAdds) {
  Table t({"a"});
  EXPECT_EQ(t.row_count(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Format, FixedDigits) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

TEST(Format, SignificantDigits) {
  EXPECT_EQ(format_sig(1234.5678, 3), "1.23e+03");
  EXPECT_EQ(format_sig(0.001234, 2), "0.0012");
}

TEST(Format, Percent) {
  EXPECT_EQ(format_percent(0.6), "60%");
  EXPECT_EQ(format_percent(0.125, 1), "12.5%");
}

}  // namespace
}  // namespace nashlb::util
