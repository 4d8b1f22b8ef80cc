// Unit tests for common/value.

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/value.h"

namespace mmv {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(42).is_int());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value("hi").is_string());
  EXPECT_TRUE(Value(ValueList{Value(1)}).is_list());

  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(3.5).as_double(), 3.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
  EXPECT_TRUE(Value(true).as_bool());
}

TEST(ValueTest, NumericCrossKindEquality) {
  EXPECT_EQ(Value(2), Value(2.0));
  EXPECT_EQ(Value(2.0), Value(2));
  EXPECT_NE(Value(2), Value(2.5));
  EXPECT_TRUE(Value(2).is_numeric());
  EXPECT_DOUBLE_EQ(Value(2).numeric(), 2.0);
}

TEST(ValueTest, CrossKindInequality) {
  EXPECT_NE(Value(1), Value("1"));
  EXPECT_NE(Value(true), Value(1));
  EXPECT_NE(Value(), Value(0));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(2).Hash(), Value(2.0).Hash());
  std::unordered_set<Value, ValueHash> set;
  set.insert(Value(2));
  EXPECT_TRUE(set.count(Value(2.0)) > 0);
}

TEST(ValueTest, TotalOrder) {
  // kind classes: null < bool < numeric < string < list
  EXPECT_LT(Value(), Value(false));
  EXPECT_LT(Value(true), Value(0));
  EXPECT_LT(Value(7), Value("a"));
  EXPECT_LT(Value("z"), Value(ValueList{}));
  // within numerics
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value(1.5), Value(2));
  EXPECT_FALSE(Value(2) < Value(2.0));
  EXPECT_FALSE(Value(2.0) < Value(2));
}

TEST(ValueTest, ListOrderingIsLexicographic) {
  Value a(ValueList{Value(1), Value(2)});
  Value b(ValueList{Value(1), Value(3)});
  Value c(ValueList{Value(1)});
  EXPECT_LT(a, b);
  EXPECT_LT(c, a);
  EXPECT_EQ(a, Value(ValueList{Value(1), Value(2)}));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value("x").ToString(), "\"x\"");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value().ToString(), "null");
  EXPECT_EQ(Value(ValueList{Value(1), Value("a")}).ToString(),
            "[1, \"a\"]");
  EXPECT_EQ(Value(2.0).ToString(), "2.0");  // doubles keep a decimal marker
}

TEST(ValueTest, DoublesPrintTheShortestExactText) {
  EXPECT_EQ(Value(-0.0).ToString(), "-0.0");
  EXPECT_EQ(Value(0.1).ToString(), "0.1");
  EXPECT_EQ(Value(1000000.25).ToString(), "1000000.25");
  EXPECT_EQ(Value(1000000.75).ToString(), "1000000.75");
  EXPECT_EQ(Value(0.1234567).ToString(), "0.1234567");
  EXPECT_EQ(Value(1e6).ToString(), "1e+06");  // the exponent marks a double
  EXPECT_EQ(Value(1e22).ToString(), "1e+22");
  EXPECT_EQ(Value(5e-324).ToString(), "5e-324");
}

TEST(ValueTest, NestedLists) {
  Value nested(ValueList{Value(ValueList{Value(1)}), Value(2)});
  EXPECT_EQ(nested.as_list()[0].as_list()[0], Value(1));
  EXPECT_EQ(nested.ToString(), "[[1], 2]");
  EXPECT_EQ(nested, Value(ValueList{Value(ValueList{Value(1)}), Value(2)}));
}

}  // namespace
}  // namespace mmv
