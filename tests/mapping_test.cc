#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>

#include "partition/mapping.h"

namespace jecb {
namespace {

// Parameterized over partition counts: every mapping must stay in range and
// be deterministic.
class MappingRangeTest : public ::testing::TestWithParam<int32_t> {};

TEST_P(MappingRangeTest, HashStaysInRangeAndIsDeterministic) {
  int32_t k = GetParam();
  HashMapping m(k);
  EXPECT_EQ(m.num_partitions(), k);
  for (int64_t v = -50; v < 200; ++v) {
    int32_t p = m.Map(Value(v));
    EXPECT_GE(p, 0);
    EXPECT_LT(p, k);
    EXPECT_EQ(p, m.Map(Value(v)));
  }
  EXPECT_GE(m.Map(Value("some-symbol")), 0);
}

// [lo, hi] of a range mapping. Each test runs a small domain plus two wider
// than INT64_MAX, where hi - lo does not fit in int64_t.
using Domain = std::pair<int64_t, int64_t>;

TEST_P(MappingRangeTest, RangeStaysInRange) {
  int32_t k = GetParam();
  for (auto [lo, hi] :
       {Domain{0, 999}, Domain{INT64_MIN, INT64_MAX}, Domain{-1, INT64_MAX}}) {
    RangeMapping m(k, lo, hi);
    for (int64_t v : {-10L, 0L, 1L, 500L, 999L, 5000L, INT64_MIN, INT64_MAX}) {
      int32_t p = m.Map(Value(v));
      EXPECT_GE(p, 0) << "[" << lo << ", " << hi << "] v=" << v;
      EXPECT_LT(p, k) << "[" << lo << ", " << hi << "] v=" << v;
    }
  }
}

TEST_P(MappingRangeTest, RangeIsMonotone) {
  int32_t k = GetParam();
  for (auto [lo, hi] :
       {Domain{0, 9999}, Domain{INT64_MIN, INT64_MAX}, Domain{-1, INT64_MAX}}) {
    RangeMapping m(k, lo, hi);
    // 1,429 evenly spaced values from lo (every 7th value of [0, 9999]),
    // stepped in uint64_t so the wide domains do not overflow.
    const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    const uint64_t step = span / 1428;
    int32_t prev = 0;
    for (uint64_t i = 0; i <= 1428; ++i) {
      const auto v = static_cast<int64_t>(static_cast<uint64_t>(lo) + i * step);
      int32_t p = m.Map(Value(v));
      EXPECT_GE(p, prev) << "[" << lo << ", " << hi << "] v=" << v;
      prev = p;
    }
  }
}

TEST_P(MappingRangeTest, HashIsRoughlyBalanced) {
  int32_t k = GetParam();
  HashMapping m(k);
  std::vector<int> counts(k, 0);
  const int n = 20000;
  for (int64_t v = 0; v < n; ++v) ++counts[m.Map(Value(v))];
  for (int32_t p = 0; p < k; ++p) {
    double mean = static_cast<double>(n) / k;
    double tol = std::max(mean * 0.25, 6.0 * std::sqrt(mean));
    EXPECT_NEAR(counts[p], mean, tol) << "partition " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, MappingRangeTest, ::testing::Values(2, 3, 8, 64, 1024));

TEST(RangeMappingTest, EqualWidthBuckets) {
  RangeMapping m(4, 0, 99);
  EXPECT_EQ(m.Map(Value(0)), 0);
  EXPECT_EQ(m.Map(Value(24)), 0);
  EXPECT_EQ(m.Map(Value(25)), 1);
  EXPECT_EQ(m.Map(Value(99)), 3);
}

TEST(RangeMappingTest, NonIntegerFallsBackToHash) {
  RangeMapping m(8, 0, 99);
  int32_t p = m.Map(Value("abc"));
  EXPECT_GE(p, 0);
  EXPECT_LT(p, 8);
}

TEST(RangeMappingTest, KeepsNearbyValuesTogether) {
  RangeMapping m(8, 0, 100000);
  // A narrow window should mostly fall in one bucket.
  int same = 0;
  for (int64_t v = 40000; v < 40050; ++v) {
    if (m.Map(Value(v)) == m.Map(Value(int64_t(40000)))) ++same;
  }
  EXPECT_EQ(same, 50);
}

TEST(LookupMappingTest, MapsKnownValuesExactly) {
  std::unordered_map<Value, int32_t, ValueHashFunctor> table;
  table[Value(1)] = 3;
  table[Value("x")] = 5;
  LookupMapping m(8, std::move(table));
  EXPECT_EQ(m.Map(Value(1)), 3);
  EXPECT_EQ(m.Map(Value("x")), 5);
  EXPECT_EQ(m.table_size(), 2u);
}

TEST(LookupMappingTest, UnknownValuesFallBackToHash) {
  LookupMapping m(8, {});
  HashMapping h(8);
  for (int64_t v = 0; v < 64; ++v) {
    EXPECT_EQ(m.Map(Value(v)), h.Map(Value(v)));
  }
}

TEST(MappingTest, Names) {
  EXPECT_EQ(HashMapping(2).name(), "hash");
  EXPECT_EQ(RangeMapping(2, 0, 1).name(), "range");
  EXPECT_EQ(LookupMapping(2, {}).name(), "lookup");
}

}  // namespace
}  // namespace jecb
