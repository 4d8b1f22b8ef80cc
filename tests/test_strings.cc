// Unit tests for common/strings.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/strings.h"

namespace mmv {
namespace {

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\na b\r\n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("ab", "abc"));
  EXPECT_FALSE(StartsWith("xbc", "ab"));
}

TEST(StringsTest, EndsWith) {
  EXPECT_TRUE(EndsWith("abcdef", "def"));
  EXPECT_TRUE(EndsWith("abc", ""));
  EXPECT_FALSE(EndsWith("bc", "abc"));
  EXPECT_FALSE(EndsWith("abx", "bc"));
}

TEST(StringsTest, ParseDecimal) {
  EXPECT_EQ(*ParseDecimal<int>("-42", "n"), -42);
  EXPECT_EQ(*ParseDecimal<uint64_t>("18446744073709551615", "n"),
            UINT64_MAX);
  EXPECT_EQ(*ParseDecimal<double>("2.5", "x"), 2.5);
  for (const char* bad : {"", "-", "+1", "1x", " 1", "2147483648"}) {
    Result<int> r = ParseDecimal<int>(bad, "n");
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << bad;
  }
  EXPECT_FALSE(ParseDecimal<uint64_t>("-1", "n").ok());
  EXPECT_FALSE(ParseDecimal<double>(std::string(400, '9') + ".5", "x").ok());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

}  // namespace
}  // namespace mmv
