// Unit tests for bp::util: Status/Result, serialization, RNG, strings,
// budgets.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/budget.hpp"
#include "util/hash.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace bp::util {
namespace {

// ------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("no such page");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.ToString(), "NotFound: no such page");
}

TEST(StatusTest, CodeNamesAreDistinct) {
  std::set<std::string_view> names;
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    names.insert(StatusCodeName(static_cast<StatusCode>(c)));
  }
  EXPECT_EQ(names.size(),
            static_cast<size_t>(StatusCode::kUnimplemented) + 1);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Corruption("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Result<int> Quarter(int v) {
  BP_ASSIGN_OR_RETURN(int half, Half(v));
  BP_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

// ------------------------------------------------------------ require

TEST(RequireTest, ThrowsLogicErrorWithContext) {
  try {
    BP_REQUIRE(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
  }
}

TEST(RequireTest, PassesSilently) {
  BP_REQUIRE(true);
  BP_CHECK(2 + 2 == 4);
}

// -------------------------------------------------------------- serde

TEST(SerdeTest, FixedWidthRoundTrip) {
  Writer w;
  w.PutU8(0xAB);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  Reader r(w.data());
  EXPECT_EQ(r.ReadU8(), 0xAB);
  EXPECT_EQ(r.ReadU16(), 0xBEEF);
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.Finish().ok());
}

TEST(SerdeTest, VarintRoundTripBoundaries) {
  const uint64_t values[] = {0,      1,        127,        128,
                             16383,  16384,    (1ULL << 32) - 1,
                             1ULL << 32,       UINT64_MAX};
  Writer w;
  for (uint64_t v : values) w.PutVarint64(v);
  Reader r(w.data());
  for (uint64_t v : values) EXPECT_EQ(r.ReadVarint64(), v);
  EXPECT_TRUE(r.Finish().ok());
}

TEST(SerdeTest, SignedVarintRoundTrip) {
  const int64_t values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  Writer w;
  for (int64_t v : values) w.PutSignedVarint64(v);
  Reader r(w.data());
  for (int64_t v : values) EXPECT_EQ(r.ReadSignedVarint64(), v);
  EXPECT_TRUE(r.Finish().ok());
}

TEST(SerdeTest, StringAndDoubleRoundTrip) {
  Writer w;
  w.PutString("hello");
  w.PutString("");
  w.PutString(std::string("\0with\0nuls", 10));
  w.PutDouble(3.14159);
  w.PutDouble(-0.0);
  Reader r(w.data());
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_EQ(r.ReadString(), std::string_view("\0with\0nuls", 10));
  EXPECT_DOUBLE_EQ(r.ReadDouble(), 3.14159);
  EXPECT_EQ(r.ReadDouble(), 0.0);
  EXPECT_TRUE(r.Finish().ok());
}

TEST(SerdeTest, TruncatedReadSetsError) {
  Writer w;
  w.PutU32(7);
  Reader r(std::string_view(w.data()).substr(0, 2));
  r.ReadU32();
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.Finish().ok());
}

TEST(SerdeTest, TrailingBytesFailFinish) {
  Writer w;
  w.PutU8(1);
  w.PutU8(2);
  Reader r(w.data());
  r.ReadU8();
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.Finish().ok());
}

TEST(SerdeTest, MalformedVarintOverflowDetected) {
  // 11 bytes of continuation: not a valid 64-bit varint.
  std::string bad(11, '\xff');
  Reader r(bad);
  r.ReadVarint64();
  EXPECT_FALSE(r.ok());
}

TEST(SerdeTest, OrderedKeyPreservesOrder) {
  const uint64_t values[] = {0, 1, 255, 256, 65535, 1ULL << 40, UINT64_MAX};
  std::string prev;
  for (uint64_t v : values) {
    std::string key = OrderedKeyU64(v);
    EXPECT_EQ(key.size(), 8u);
    EXPECT_EQ(DecodeOrderedKeyU64(key), v);
    if (!prev.empty()) {
      EXPECT_LT(prev, key);
    }
    prev = key;
  }
}

TEST(SerdeTest, OrderedKeyPairSortsLexicographically) {
  EXPECT_LT(OrderedKeyU64Pair(1, 999), OrderedKeyU64Pair(2, 0));
  EXPECT_LT(OrderedKeyU64Pair(2, 1), OrderedKeyU64Pair(2, 2));
}

// ---------------------------------------------------------------- rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkIsIndependentAndStable) {
  Rng parent(99);
  Rng f1 = parent.Fork(1);
  Rng f2 = parent.Fork(1);
  EXPECT_EQ(f1.NextU64(), f2.NextU64());
  Rng f3 = parent.Fork(2);
  EXPECT_NE(parent.Fork(1).NextU64(), f3.NextU64());
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.UniformReal();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(42);
  int counts[10] = {};
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.Uniform(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 100);  // within 10% relative
  }
}

TEST(RngTest, PoissonMeanMatchesLambda) {
  Rng rng(5);
  for (double lambda : {0.5, 4.0, 100.0}) {
    double sum = 0;
    const int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i) sum += rng.Poisson(lambda);
    EXPECT_NEAR(sum / kDraws, lambda, lambda * 0.1 + 0.1);
  }
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(6);
  double sum = 0;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / kDraws, 0.5, 0.05);
}

TEST(RngTest, ZipfFavorsLowRanks) {
  Rng rng(8);
  const uint64_t kN = 1000;
  uint64_t first = 0;
  uint64_t total = 20000;
  for (uint64_t i = 0; i < total; ++i) {
    uint64_t r = rng.Zipf(kN, 1.1);
    EXPECT_LT(r, kN);
    if (r == 0) ++first;
  }
  // Rank 0 should dominate: > 5% of draws for s=1.1, n=1000.
  EXPECT_GT(first, total / 20);
}

TEST(RngTest, PickWeightedRespectsWeights) {
  Rng rng(9);
  const double weights[] = {0.0, 1.0, 3.0};
  int counts[3] = {};
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.PickWeighted(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(10);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  auto reshuffled = v;
  std::sort(reshuffled.begin(), reshuffled.end());
  EXPECT_EQ(reshuffled, sorted);
}

// -------------------------------------------------------------- hash

TEST(HashTest, Fnv1aStableAndSeedable) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64("abc", 1), Fnv1a64("abc", 2));
}

TEST(HashTest, Xxh64MatchesPublishedVectors) {
  // Storage frames and WAL frames persist these values, so they must be
  // the reference XXH64 on every host.
  EXPECT_EQ(Xxh64(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(Xxh64("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(Xxh64("abc"), 0x44BC2CF5AD770999ULL);
  // 39 bytes: one 32-byte stripe plus the 8-, 4- and 1-byte tails.
  EXPECT_EQ(Xxh64("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
  EXPECT_EQ(Xxh64("xxhash", 20141025), 0xB559B98D844E0635ULL);
  EXPECT_NE(Xxh64("abc", 1), Xxh64("abc", 2));
}

TEST(HashTest, Mix64Avalanches) {
  EXPECT_NE(Mix64(1), Mix64(2));
  // Single-bit flips should change roughly half the output bits.
  int diff = __builtin_popcountll(Mix64(0x1000) ^ Mix64(0x1001));
  EXPECT_GT(diff, 16);
  EXPECT_LT(diff, 48);
}

// ------------------------------------------------------------ strings

TEST(StringsTest, ToLower) {
  EXPECT_EQ(ToLower("Hello World 123"), "hello world 123");
}

TEST(StringsTest, SplitDropsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{}));
  EXPECT_EQ(Split(",,", ','), (std::vector<std::string>{}));
}

TEST(StringsTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, "/"), "x/y/z");
  EXPECT_EQ(Join({}, "/"), "");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "ok"), "7-ok");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(5 * 1024 * 1024), "5.0 MiB");
}

// --------------------------------------------------------------- time

TEST(TimeTest, SpanOverlap) {
  TimeSpan a{0, 100};
  TimeSpan b{50, 150};
  TimeSpan c{100, 200};
  EXPECT_TRUE(a.Overlaps(b));
  EXPECT_TRUE(b.Overlaps(a));
  EXPECT_FALSE(a.Overlaps(c));  // half-open: [0,100) and [100,200)
  EXPECT_TRUE(a.Contains(0));
  EXPECT_FALSE(a.Contains(100));
}

TEST(TimeTest, StillOpenSpanOverlapsEverythingLater) {
  TimeSpan open{50, kTimeMax};
  EXPECT_TRUE(open.Overlaps(TimeSpan{1000000, 1000001}));
  EXPECT_FALSE(open.Overlaps(TimeSpan{0, 50}));
}

// ------------------------------------------------------------- budget

TEST(BudgetTest, UnlimitedNeverExhausts) {
  QueryBudget b;
  for (int i = 0; i < 100000; ++i) EXPECT_TRUE(b.Charge());
  EXPECT_FALSE(b.exhausted());
}

TEST(BudgetTest, NodeCapStopsWork) {
  QueryBudget b = QueryBudget::WithNodeCap(100);
  uint64_t done = 0;
  while (b.Charge()) ++done;
  EXPECT_EQ(done, 100u);
  EXPECT_TRUE(b.exhausted());
  EXPECT_FALSE(b.Charge());  // stays exhausted
}

TEST(BudgetTest, DeadlineStopsWork) {
  QueryBudget b = QueryBudget::WithDeadlineMs(5);
  Stopwatch watch;
  while (b.Charge()) {
    if (watch.ElapsedMs() > 2000) FAIL() << "deadline never fired";
  }
  EXPECT_TRUE(b.exhausted());
  // Poll granularity: should stop within a small factor of the deadline.
  EXPECT_LT(watch.ElapsedMs(), 1000);
}

}  // namespace
}  // namespace bp::util
