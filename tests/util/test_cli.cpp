#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace nashlb::util {
namespace {

Args parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), argv.begin(), argv.end());
  return Args(static_cast<int>(v.size()), v.data());
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
  // Non-option arguments are skipped and leave the options intact.
  const Args a = parse({"first", "--k=v", "second"});
  EXPECT_EQ(a.get("k"), "v");
  EXPECT_EQ(a.get("first", "absent"), "absent");
  EXPECT_EQ(a.get("second", "absent"), "absent");
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
