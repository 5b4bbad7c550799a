#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace nashlb::util {
namespace {

/// Parses argv as a program that reads the options the tests name.
Args parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), argv.begin(), argv.end());
  return Args(static_cast<int>(v.size()), v.data(),
              {"users", "verbose", "k", "rho", "n", "x", "delta"});
}

/// The message of the std::invalid_argument that parsing argv throws, or
/// "" when it parses.
std::string parse_error(std::initializer_list<const char*> argv) {
  try {
    static_cast<void>(parse(argv));
  } catch (const std::invalid_argument& ex) {
    return ex.what();
  }
  return "";
}

TEST(Args, EqualsSyntax) {
  const Args a = parse({"--users=10"});
  EXPECT_EQ(a.get_int("users", 0), 10);
}

TEST(Args, SpaceSyntax) {
  const Args a = parse({"--users", "10"});
  EXPECT_EQ(a.get_int("users", 0), 10);
}

TEST(Args, BareFlag) {
  const Args a = parse({"--verbose", "--users=3"});
  EXPECT_EQ(a.get("verbose", "absent"), "");
  EXPECT_EQ(a.get_int("users", 0), 3);  // not swallowed as the flag's value
}

TEST(Args, MissingReturnsFallback) {
  const Args a = parse({});
  EXPECT_EQ(a.get("name", "dflt"), "dflt");
  EXPECT_EQ(a.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(a.get_double("x", 2.5), 2.5);
}

TEST(Args, Positionals) {
  // A non-option argument is an error, not skipped.
  EXPECT_THROW(static_cast<void>(parse({"first", "--k=v", "second"})),
               std::invalid_argument);
}

TEST(Args, UnknownOptionThrows) {
  // A misspelled option must not silently run the default.
  EXPECT_NE(parse_error({"--rhoo", "0.9"}).find("--rhoo"), std::string::npos);
  EXPECT_NE(parse_error({"--users=3", "--userz=4"}).find("--userz"),
            std::string::npos);
}

TEST(Args, StrayPositionalThrows) {
  // `--rho=0.65` carries its value, so the 0.9 after it is stray.
  EXPECT_NE(parse_error({"0.9"}).find("'0.9'"), std::string::npos);
  EXPECT_NE(parse_error({"--rho=0.65", "0.9"}).find("'0.9'"),
            std::string::npos);
}

TEST(Args, DoubleParsing) {
  const Args a = parse({"--rho=0.65"});
  EXPECT_DOUBLE_EQ(a.get_double("rho", 0.0), 0.65);
}

TEST(Args, MalformedIntThrows) {
  const Args a = parse({"--n=abc"});
  EXPECT_THROW(static_cast<void>(a.get_int("n", 0)), std::invalid_argument);
}

TEST(Args, MalformedDoubleThrows) {
  const Args a = parse({"--x=1.2.3"});
  EXPECT_THROW(static_cast<void>(a.get_double("x", 0.0)), std::invalid_argument);
}

TEST(Args, NegativeNumberAsValue) {
  const Args a = parse({"--delta", "-5"});
  // "-5" does not start with "--", so it is consumed as the value.
  EXPECT_EQ(a.get_int("delta", 0), -5);
}

}  // namespace
}  // namespace nashlb::util
