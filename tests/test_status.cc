// Unit tests for common/status and common/result.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace mmv {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no table x");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no table x");
  EXPECT_EQ(s.ToString(), "NotFound: no table x");
}

TEST(StatusTest, AllFactories) {
  EXPECT_EQ(Status::InvalidArgument("m").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("m").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("m").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("m").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("m").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ParseError("m").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::TypeError("m").code(), StatusCode::kTypeError);
  EXPECT_EQ(Status::ResourceExhausted("m").code(),
            StatusCode::kResourceExhausted);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UseMacro(int x) {
  MMV_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacro) {
  EXPECT_TRUE(UseMacro(1).ok());
  EXPECT_EQ(UseMacro(-1).code(), StatusCode::kInvalidArgument);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

TEST(ResultTest, ValueAndError) {
  Result<int> good = Half(10);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 5);
  EXPECT_TRUE(good.status().ok());

  Result<int> bad = Half(3);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.ValueOr(-1), -1);
  EXPECT_EQ(good.ValueOr(-1), 5);
}

Result<int> Chain(int x) {
  MMV_ASSIGN_OR_RETURN(int h, Half(x));
  return h + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  ASSERT_TRUE(Chain(4).ok());
  EXPECT_EQ(*Chain(4), 3);
  EXPECT_FALSE(Chain(5).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).ValueOrDie();
  EXPECT_EQ(*p, 7);
}

// Misuse aborts with the status on stderr in every build, NDEBUG too:
// unwrapping an error Result must not read an empty optional.
TEST(ResultDeathTest, UnwrappingAnErrorAborts) {
  Result<std::vector<int>> bad(Status::NotFound("no table x"));
  EXPECT_DEATH((void)bad.ValueOrDie(),
               "ValueOrDie on an error Result: NotFound: no table x");
  EXPECT_DEATH((void)std::move(bad).ValueOrDie(), "NotFound: no table x");
  EXPECT_DEATH((void)bad->size(), "NotFound: no table x");
  EXPECT_DEATH((void)(*bad).size(), "NotFound: no table x");
  const Result<std::vector<int>>& cbad = bad;
  EXPECT_DEATH((void)cbad->size(), "NotFound: no table x");
}

TEST(ResultDeathTest, ErrorResultFromOkStatusAborts) {
  EXPECT_DEATH(Result<int>{Status::OK()}, "Result built from an OK status");
}

}  // namespace
}  // namespace mmv
