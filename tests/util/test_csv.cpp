#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace nashlb::util {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// One file per test: ctest runs each test as its own process, in
// parallel, and a shared path let one test truncate another's output.
class CsvTest : public ::testing::Test {
 protected:
  std::string path_ =
      ::testing::TempDir() + "nashlb_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter w(path_, {"x", "y"});
    w.add_row({"1", "2"});
    w.add_row({"3", "4"});
    EXPECT_EQ(w.row_count(), 2u);
  }
  EXPECT_EQ(read_file(path_), "x,y\n1,2\n3,4\n");
}

TEST_F(CsvTest, ArityMismatchThrows) {
  CsvWriter w(path_, {"x", "y"});
  EXPECT_THROW(w.add_row({"1"}), std::invalid_argument);
}

TEST_F(CsvTest, EmptyHeaderThrows) {
  EXPECT_THROW(CsvWriter(path_, {}), std::invalid_argument);
}

TEST(CsvEscape, PlainCellUnchanged) {
  EXPECT_EQ(CsvWriter::escape("hello"), "hello");
}

TEST(CsvEscape, CommaQuoted) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
}

TEST(CsvEscape, QuoteDoubled) {
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscape, NewlineQuoted) {
  EXPECT_EQ(CsvWriter::escape("a\nb"), "\"a\nb\"");
}

TEST(CsvWriterErrors, UnopenablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}),
               std::runtime_error);
}

TEST(CsvWriterErrors, FailedWriteThrows) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full to fail a write";
  }
  EXPECT_THROW(
      {
        CsvWriter w("/dev/full", {"a", "b"});
        for (int k = 0; k < 10; ++k) w.add_row({"1", "2"});
      },
      std::runtime_error);
}

}  // namespace
}  // namespace nashlb::util
