// Unit and property tests for seer::util.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

#include "util/cacheline.hpp"
#include "util/gaussian.hpp"
#include "util/json.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"
#include "util/small_vec.hpp"
#include "util/stats.hpp"
#include "util/zipf.hpp"

namespace seer::util {
namespace {

// ---------------------------------------------------------------- RNG ------

TEST(SplitMix64, DeterministicAndDistinct) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    seen.insert(va);
  }
  EXPECT_EQ(seen.size(), 100u) << "collisions in the first 100 outputs";
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro256, Deterministic) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, BelowRespectsBound) {
  Xoshiro256 rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Xoshiro256, RangeInclusive) {
  Xoshiro256 rng(5);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.range(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    hit_lo |= (v == 10);
    hit_hi |= (v == 13);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Xoshiro256, Uniform01HalfOpen) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Xoshiro256, BelowIsRoughlyUniform) {
  Xoshiro256 rng(13);
  constexpr std::uint64_t kBuckets = 8;
  std::array<int, kBuckets> counts{};
  constexpr int kN = 80000;
  for (int i = 0; i < kN; ++i) counts[rng.below(kBuckets)]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kN / 8.0, kN * 0.01);
  }
}

TEST(Xoshiro256, BernoulliExtremes) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Xoshiro256, BernoulliFrequency) {
  Xoshiro256 rng(19);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(Xoshiro256, SplitProducesIndependentStream) {
  Xoshiro256 parent(23);
  Xoshiro256 child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

// --------------------------------------------------------------- Zipf ------

TEST(Zipf, PmfSumsToOne) {
  const Zipf z(100, 0.8);
  double sum = 0.0;
  for (std::uint64_t k = 0; k < 100; ++k) sum += z.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_EQ(z.pmf(100), 0.0);
}

TEST(Zipf, HeadIsHottest) {
  const Zipf z(50, 1.0);
  for (std::uint64_t k = 1; k < 50; ++k) {
    EXPECT_GE(z.pmf(k - 1), z.pmf(k)) << "pmf must be non-increasing in rank";
  }
}

TEST(Zipf, ZeroSkewIsUniform) {
  const Zipf z(64, 0.0);
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_NEAR(z.pmf(k), 1.0 / 64.0, 1e-12);
  }
}

TEST(Zipf, HigherSkewConcentratesHead) {
  const Zipf mild(256, 0.5);
  const Zipf hot(256, 1.2);
  EXPECT_GT(hot.pmf(0), mild.pmf(0));
}

struct ZipfCase {
  std::uint64_t n;
  double s;
};

class ZipfParam : public ::testing::TestWithParam<ZipfCase> {};

TEST_P(ZipfParam, SamplesMatchPmf) {
  const auto [n, s] = GetParam();
  const Zipf z(n, s);
  Xoshiro256 rng(29);
  constexpr int kN = 60000;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < kN; ++i) {
    const std::uint64_t k = z.sample(rng);
    ASSERT_LT(k, n);
    counts[k]++;
  }
  // Check the head frequencies against the pmf (the tail is too thin for a
  // tight bound at this sample size).
  for (std::uint64_t k = 0; k < std::min<std::uint64_t>(4, n); ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(kN), z.pmf(k),
                5.0 * std::sqrt(z.pmf(k) / kN) + 0.005);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ZipfParam,
                         ::testing::Values(ZipfCase{2, 0.5}, ZipfCase{16, 0.0},
                                           ZipfCase{16, 0.99}, ZipfCase{256, 0.7},
                                           ZipfCase{1024, 1.2}));

// -------------------------------------------------------------- stats ------

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMeanVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic population-variance example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_NEAR(s.sample_variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStats, MatchesDirectComputation) {
  Xoshiro256 rng(31);
  RunningStats s;
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform01() * 100.0 - 50.0;
    xs.push_back(x);
    s.add(x);
  }
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-7);
}

TEST(RunningStats, Reset) {
  RunningStats s;
  s.add(1.0);
  s.add(2.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(GeoMean, KnownValue) {
  GeoMean g;
  g.add(1.0);
  g.add(4.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_EQ(g.count(), 2u);
}

TEST(GeoMean, IgnoresNonPositive) {
  GeoMean g;
  g.add(0.0);
  g.add(-3.0);
  EXPECT_EQ(g.count(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  g.add(8.0);
  EXPECT_DOUBLE_EQ(g.value(), 8.0);
}

TEST(PercentileSketch, InterpolatesBetweenRanks) {
  PercentileSketch p;
  for (double x : {10.0, 20.0, 30.0, 40.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(p.percentile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(p.percentile(0.5), 25.0);
  EXPECT_DOUBLE_EQ(p.percentile(1.0 / 3.0), 20.0);
  EXPECT_DOUBLE_EQ(p.mean(), 25.0);
}

TEST(PercentileSketch, EmptyAndClamped) {
  PercentileSketch p;
  EXPECT_EQ(p.percentile(0.5), 0.0);
  p.add(7.0);
  EXPECT_DOUBLE_EQ(p.percentile(-1.0), 7.0);
  EXPECT_DOUBLE_EQ(p.percentile(2.0), 7.0);
}

// ----------------------------------------------------------- gaussian ------

TEST(Gaussian, CdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-6);
  EXPECT_NEAR(normal_cdf(3.0), 0.99865, 1e-4);
}

TEST(Gaussian, QuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(normal_quantile(0.8), 0.8416212, 1e-6);
}

class GaussianRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(GaussianRoundTrip, QuantileInvertsCdf) {
  const double p = GetParam();
  EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, GaussianRoundTrip,
                         ::testing::Values(0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.8,
                                           0.9, 0.99, 0.999));

TEST(Gaussian, QuantileMonotone) {
  double prev = normal_quantile(0.01);
  for (double p = 0.02; p < 1.0; p += 0.01) {
    const double q = normal_quantile(p);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(Gaussian, PercentileDegenerateVariance) {
  EXPECT_DOUBLE_EQ(gaussian_percentile(0.4, 0.0, 0.8), 0.4);
  EXPECT_DOUBLE_EQ(gaussian_percentile(0.4, -1.0, 0.8), 0.4);  // clamped
}

TEST(Gaussian, PercentileMatchesFormula) {
  const double v = gaussian_percentile(2.0, 9.0, 0.975);
  EXPECT_NEAR(v, 2.0 + 3.0 * 1.959963985, 1e-5);
  // Below the median the percentile sits below the mean.
  EXPECT_LT(gaussian_percentile(2.0, 9.0, 0.2), 2.0);
}

TEST(Gaussian, ExtremePClamped) {
  EXPECT_TRUE(std::isfinite(normal_quantile(0.0)));
  EXPECT_TRUE(std::isfinite(normal_quantile(1.0)));
  EXPECT_LT(normal_quantile(0.0), -6.0);
  EXPECT_GT(normal_quantile(1.0), 6.0);
}

// ----------------------------------------------------------- SmallVec ------

TEST(SmallVec, BasicOps) {
  SmallVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  v.push_back(3);
  v.push_back(1);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 3);
  EXPECT_EQ(v.back(), 1);
  v.pop_back();
  EXPECT_EQ(v.size(), 1u);
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(SmallVec, InitializerListAndEquality) {
  const SmallVec<int, 4> a{1, 2, 3};
  const SmallVec<int, 4> b{1, 2, 3};
  const SmallVec<int, 4> c{1, 2};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(SmallVec, TryPushRespectsCapacity) {
  SmallVec<int, 2> v;
  EXPECT_TRUE(v.try_push_back(1));
  EXPECT_TRUE(v.try_push_back(2));
  EXPECT_TRUE(v.full());
  EXPECT_FALSE(v.try_push_back(3));
  EXPECT_EQ(v.size(), 2u);
}

TEST(SmallVec, Contains) {
  const SmallVec<int, 4> v{5, 7};
  EXPECT_TRUE(v.contains(5));
  EXPECT_TRUE(v.contains(7));
  EXPECT_FALSE(v.contains(6));
}

TEST(SmallVec, IterationOrder) {
  SmallVec<int, 8> v;
  for (int i = 0; i < 8; ++i) v.push_back(i * i);
  int idx = 0;
  for (int x : v) {
    EXPECT_EQ(x, idx * idx);
    ++idx;
  }
}

// ------------------------------------------------------------ Padded ------

TEST(Padded, NoFalseSharingLayout) {
  Padded<int> arr[4];
  for (int i = 0; i < 3; ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&arr[i].value);
    const auto b = reinterpret_cast<std::uintptr_t>(&arr[i + 1].value);
    EXPECT_GE(b - a, kCacheLineBytes);
  }
}

TEST(Padded, AccessorsWork) {
  Padded<int> p(41);
  EXPECT_EQ(*p, 41);
  *p += 1;
  EXPECT_EQ(p.value, 42);
}

// -------------------------------------------------------------- JSON ------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json::parse("null")->is_null());
  EXPECT_TRUE(json::parse("true")->boolean);
  EXPECT_FALSE(json::parse("false")->boolean);
  EXPECT_DOUBLE_EQ(json::parse("-12.5e2")->number, -1250.0);
  EXPECT_EQ(json::parse("\"hi\"")->string, "hi");
  EXPECT_EQ(json::parse("9007199254740993")->as_u64(), 9007199254740992ull)
      << "counters above 2^53 lose precision but stay finite";
  EXPECT_EQ(json::parse("18446744073709551615")->as_u64(),
            18446744073709551615ull)
      << "2^64-1 rounds up to 2^64; as_u64 saturates instead of overflowing";
}

TEST(Json, ParsesNestedDocument) {
  const auto v = json::parse(
      R"({"version": 1, "items": [{"x": 3, "name": "a"}, {"x": 4}], "ok": true})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->u64("version"), 1u);
  const json::Value* items = v->find("items");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->array.size(), 2u);
  EXPECT_EQ(items->array[0].u64("x"), 3u);
  EXPECT_EQ(items->array[0].str("name"), "a");
  EXPECT_EQ(items->array[1].u64("x"), 4u);
  EXPECT_TRUE(v->find("ok")->boolean);
  EXPECT_EQ(v->find("absent"), nullptr);
  EXPECT_EQ(v->u64("absent", 7), 7u);
}

TEST(Json, PreservesObjectOrderAndKeepsFirstDuplicate) {
  const auto v = json::parse(R"({"b": 1, "a": 2, "b": 3})");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->object.size(), 3u);
  EXPECT_EQ(v->object[0].first, "b");
  EXPECT_EQ(v->object[1].first, "a");
  EXPECT_EQ(v->u64("b"), 1u) << "lookup keeps the first occurrence";
}

TEST(Json, DecodesStringEscapes) {
  const auto v = json::parse(R"("a\"b\\c\n\tAé€")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->string, "a\"b\\c\n\tA\xc3\xa9\xe2\x82\xac");
  const auto pair = json::parse(R"("😀")");  // surrogate pair
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->string, "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInputWithOffset) {
  std::string err;
  EXPECT_FALSE(json::parse("", &err).has_value());
  EXPECT_NE(err.find("offset"), std::string::npos) << err;
  EXPECT_FALSE(json::parse("{\"a\": }", &err).has_value());
  EXPECT_FALSE(json::parse("[1, 2", &err).has_value());
  EXPECT_FALSE(json::parse("{\"a\" 1}", &err).has_value());
  EXPECT_FALSE(json::parse("tru", &err).has_value());
  EXPECT_FALSE(json::parse("1 2", &err).has_value()) << "trailing garbage";
  EXPECT_FALSE(json::parse("\"unterminated", &err).has_value());
  EXPECT_FALSE(json::parse("01x", &err).has_value());
}

TEST(Json, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  std::string err;
  EXPECT_FALSE(json::parse(deep, &err).has_value());
  EXPECT_NE(err.find("deep"), std::string::npos) << err;
  // 32 levels is comfortably inside the guard.
  std::string ok(32, '[');
  ok += "1";
  ok += std::string(32, ']');
  EXPECT_TRUE(json::parse(ok).has_value());
}

TEST(Json, ParseFileReportsMissingFile) {
  std::string err;
  EXPECT_FALSE(json::parse_file("/nonexistent/x.json", &err).has_value());
  EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

// ------------------------------------------------------- JSON writer ------

std::string spelled(void (*put)(std::string&, double), double v) {
  std::string out;
  put(out, v);
  return out;
}

std::string printf_spelled(const char* fmt, double v) {
  char buf[400];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}

TEST(JsonWriter, DoubleSpellingsAreThePrintfOnes) {
  struct Row {
    double v;
    const char* g9;  // %.9g
    const char* f6;  // %.6f
    const char* g6;  // %g
  };
  const Row rows[] = {
      {0.0, "0", "0.000000", "0"},
      {0.1, "0.1", "0.100000", "0.1"},
      {1e-7, "1e-07", "0.000000", "1e-07"},
      {123456789.123, "123456789", "123456789.123000", "1.23457e+08"},
      {9007199254740992.0, "9.00719925e+15", "9007199254740992.000000",
       "9.0072e+15"},
  };
  for (const Row& r : rows) {
    EXPECT_EQ(spelled(json::put_g9, r.v), r.g9);
    EXPECT_EQ(spelled(json::put_f6, r.v), r.f6);
    EXPECT_EQ(spelled(json::put_g6, r.v), r.g6);
    EXPECT_EQ(printf_spelled("%.9g", r.v), r.g9);
    EXPECT_EQ(printf_spelled("%.6f", r.v), r.f6);
    EXPECT_EQ(printf_spelled("%g", r.v), r.g6);
  }
}

TEST(JsonWriter, IntegersAreDecimal) {
  std::string out;
  json::put_u64(out, 0);
  out += ' ';
  json::put_u64(out, ~std::uint64_t{0});
  EXPECT_EQ(out, "0 18446744073709551615");
}

TEST(JsonWriter, StringsEscapeQuotesBackslashesAndControlBytes) {
  std::string out;
  json::put_string(out, "a\"b\\c\nd\te\x01" "f\x1f");
  EXPECT_EQ(out, R"("a\"b\\c\nd\te\u0001f\u001f")");
  out.clear();
  json::put_string(out, std::string("\0\b\f\r\x7f", 5));
  EXPECT_EQ(out, R"("\u0000\b\f\r)" "\x7f\"");
}

TEST(JsonWriter, NonAsciiUtf8PassesThroughUnchanged) {
  // Bytes >= 0x80 are negative as a signed char; they must not be mistaken
  // for control bytes.
  const std::string name = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80";
  std::string out;
  json::put_string(out, name);
  EXPECT_EQ(out, "\"" + name + "\"");
}

TEST(JsonWriter, EveryByteRoundTripsThroughTheParser) {
  std::string all;
  for (int c = 1; c < 0x80; ++c) all += static_cast<char>(c);
  all += "\xc3\xa9";
  std::string out;
  json::put_string(out, all);
  const auto v = json::parse(out);
  ASSERT_TRUE(v.has_value()) << out;
  EXPECT_EQ(v->string, all);
}

TEST(JsonWriter, SeparatesMembersAndTakesRenderedFragments) {
  std::string out;
  json::Writer w(out);
  w.begin_object()
      .u64("n", 1)
      .str("name", "t\"1")
      .begin_array("xs")
      .u64(1)
      .g9(0.5)
      .end_array()
      .begin_object("inner")
      .boolean("ok", true)
      .end_object()
      .raw("")  // nothing, not even a separator
      .raw("\"m\": 2, \"k\": 3")
      .raw("nested", "{\"a\": []}")
      .end_object();
  EXPECT_EQ(out,
            R"({"n": 1, "name": "t\"1", "xs": [1, 0.5], "inner": {"ok": true}, )"
            R"("m": 2, "k": 3, "nested": {"a": []}})");
  EXPECT_TRUE(json::parse(out).has_value());
}

}  // namespace
}  // namespace seer::util
