// Unit tests for common utilities: Status/Result, RNG, hashing, strings.

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string_view>

#include "common/hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace opd {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_NE(s.ToString().find("NotFound"), std::string::npos);
}

TEST(StatusTest, AllConstructors) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

Status UseResult(int x, int* out) {
  OPD_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  *out = doubled;
  return Status::OK();
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseResult(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseResult(-5, &out).ok());
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits, 3000, 300);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(9);
  int low = 0, high = 0;
  for (int i = 0; i < 5000; ++i) {
    uint64_t r = rng.Zipf(100, 1.0);
    EXPECT_LT(r, 100u);
    if (r < 10) ++low;
    if (r >= 90) ++high;
  }
  EXPECT_GT(low, high * 3);
}

TEST(RngTest, WeightedFollowsWeights) {
  Rng rng(11);
  std::vector<double> weights = {0.8, 0.1, 0.1};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 5000; ++i) counts[rng.Weighted(weights)]++;
  EXPECT_GT(counts[0], counts[1] + counts[2]);
}

TEST(HashTest, CombineAndStrings) {
  uint64_t h1 = 1, h2 = 1;
  HashCombine(&h1, 42);
  HashCombine(&h2, 42);
  EXPECT_EQ(h1, h2);
  HashCombine(&h2, 43);
  EXPECT_NE(h1, h2);
  EXPECT_EQ(HashString("abc"), HashString("abc"));
  EXPECT_NE(HashString("abc"), HashString("abd"));
}

TEST(StringUtilTest, Split) {
  auto parts = SplitString("a;b;;c", ';');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(SplitString("", ';').size(), 1u);
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringUtilTest, Tokenize) {
  auto words = TokenizeWords("Hello, World! 123 foo-bar");
  ASSERT_EQ(words.size(), 5u);
  EXPECT_EQ(words[0], "hello");
  EXPECT_EQ(words[1], "world");
  EXPECT_EQ(words[2], "123");
  EXPECT_EQ(words[3], "foo");
  EXPECT_EQ(words[4], "bar");
  EXPECT_TRUE(TokenizeWords("").empty());
  EXPECT_TRUE(TokenizeWords("...!!!").empty());
}

// The definition ForEachWord and TokenizeWords keep: maximal runs of bytes
// with std::isalnum, lower-cased with std::tolower, in the "C" locale (no
// code here calls setlocale).
std::vector<std::string> ReferenceTokenize(std::string_view text) {
  std::vector<std::string> words;
  std::string cur;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!cur.empty()) {
      words.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) words.push_back(std::move(cur));
  return words;
}

std::vector<std::string> VisitWords(std::string_view text) {
  std::vector<std::string> words;
  ForEachWord(text, [&](std::string_view word) { words.emplace_back(word); });
  return words;
}

TEST(StringUtilTest, WordBytesMatchCLocale) {
  for (int b = 0; b < 256; ++b) {
    const char want =
        std::isalnum(b) ? static_cast<char>(std::tolower(b)) : char{0};
    EXPECT_EQ(internal::kWordBytes[b], want) << b;
    const std::string one(1, static_cast<char>(b));
    const std::string inside = "aB" + one + "9z";
    for (const std::string& text : {one, inside}) {
      EXPECT_EQ(TokenizeWords(text), ReferenceTokenize(text)) << b;
      EXPECT_EQ(VisitWords(text), ReferenceTokenize(text)) << b;
    }
  }
}

TEST(StringUtilTest, TokenizeMatchesReferenceOnRandomText) {
  const std::string common = "abcXYZ019 ,.!-#_\t\n";
  Rng rng(7);
  for (int i = 0; i < 3000; ++i) {
    std::string text;
    const uint64_t len = rng.Uniform(200);
    for (uint64_t k = 0; k < len; ++k) {
      text.push_back(rng.Bernoulli(0.7)
                         ? common[rng.Uniform(common.size())]
                         : static_cast<char>(rng.Uniform(256)));
    }
    const auto want = ReferenceTokenize(text);
    EXPECT_EQ(TokenizeWords(text), want) << i;
    EXPECT_EQ(VisitWords(text), want) << i;
  }
}

TEST(StringUtilTest, TokenizeWordsLongerThanTheStackBuffer) {
  const size_t n = internal::kWordStackBytes;
  for (size_t len : {n - 1, n, n + 1, 2 * n, size_t{1000}}) {
    std::string word;
    for (size_t k = 0; k < len; ++k) word.push_back("AbC9"[k % 4]);
    // Long words before and after short ones: the heap buffer is reused.
    const std::string text =
        word + " x, " + word + "!" + word.substr(0, 3) + "-" + word;
    const auto want = ReferenceTokenize(text);
    ASSERT_EQ(want.size(), 5u);
    EXPECT_EQ(TokenizeWords(text), want) << len;
    EXPECT_EQ(VisitWords(text), want) << len;
  }
}

TEST(StringUtilTest, StartsWithAndLower) {
  EXPECT_TRUE(StartsWith("views/run0", "views/"));
  EXPECT_FALSE(StartsWith("vie", "views/"));
  EXPECT_EQ(ToLowerAscii("AbC"), "abc");
}

}  // namespace
}  // namespace opd
