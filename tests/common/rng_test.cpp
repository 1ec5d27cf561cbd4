#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <vector>

namespace ares {
namespace {

/// The two partial Fisher-Yates paths sample_indices_into took before it
/// kept small draws in a flat array: swaps over the materialized identity
/// permutation (dense), and swaps recorded in a hash map of displaced
/// positions (sparse). Kept as the references every path must reproduce.
std::vector<std::size_t> reference_dense(Rng& rng, std::size_t n, std::size_t k) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = 0; i < k; ++i) std::swap(perm[i], perm[i + rng.index(n - i)]);
  perm.resize(k);
  return perm;
}

std::vector<std::size_t> reference_sparse(Rng& rng, std::size_t n, std::size_t k) {
  std::vector<std::size_t> out;
  std::unordered_map<std::size_t, std::size_t> displaced;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + rng.index(n - i);
    auto it = displaced.find(j);
    const std::size_t vj = it == displaced.end() ? j : it->second;
    auto self = displaced.find(i);
    displaced[j] = self == displaced.end() ? i : self->second;
    out.push_back(vj);
  }
  return out;
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInBounds) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng r(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng r(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo = saw_lo || v == 5;
    saw_hi = saw_hi || v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, RangeDegenerate) {
  Rng r(3);
  EXPECT_EQ(r.range(9, 9), 9u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    double u = r.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  double sum = 0, sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = r.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(Rng, NormalScaled) {
  Rng r(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.normal(60.0, 10.0);
  EXPECT_NEAR(sum / n, 60.0, 0.5);
}

TEST(Rng, ChanceExtremes) {
  Rng r(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceRoughProbability) {
  Rng r(23);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (r.chance(0.3)) ++hits;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ZipfInBoundsAndSkewed) {
  Rng r(29);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    auto v = r.zipf(10, 1.2);
    ASSERT_LT(v, 10u);
    ++counts[static_cast<std::size_t>(v)];
  }
  // Rank 0 must dominate rank 9 decisively.
  EXPECT_GT(counts[0], counts[9] * 5);
}

TEST(Rng, SampleIndicesDistinctAndComplete) {
  Rng r(31);
  auto idx = r.sample_indices(10, 10);
  std::set<std::size_t> s(idx.begin(), idx.end());
  EXPECT_EQ(s.size(), 10u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 9u);
}

TEST(Rng, SampleIndicesPartial) {
  Rng r(37);
  auto idx = r.sample_indices(100, 5);
  EXPECT_EQ(idx.size(), 5u);
  std::set<std::size_t> s(idx.begin(), idx.end());
  EXPECT_EQ(s.size(), 5u);
  for (auto i : s) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesZero) {
  Rng r(41);
  EXPECT_TRUE(r.sample_indices(5, 0).empty());
}

TEST(Rng, SampleIndicesSparsePathMatchesDense) {
  // The sparse k << n path must reproduce the dense Fisher-Yates exactly:
  // same draws, same indices, same order. Replay the dense algorithm with a
  // twin Rng and compare element-wise across the path-selection threshold.
  for (std::size_t n : {2000u, 5000u, 50000u}) {
    for (std::size_t k : {1u, 5u, 64u, 200u}) {
      Rng sparse_rng(47), dense_rng(47);
      auto got = sparse_rng.sample_indices(n, k);
      std::vector<std::size_t> perm(n);
      for (std::size_t i = 0; i < n; ++i) perm[i] = i;
      for (std::size_t i = 0; i < k; ++i)
        std::swap(perm[i], perm[i + dense_rng.index(n - i)]);
      perm.resize(k);
      ASSERT_EQ(got, perm) << "n=" << n << " k=" << k;
      // Both consumed the same number of draws.
      EXPECT_EQ(sparse_rng.next(), dense_rng.next());
    }
  }
}

TEST(Rng, SampleIndicesMatchesBothReferencePaths) {
  // Random (n, k) on both sides of the small-k cutoff (8) and of the old
  // dense/sparse split (n <= 1024 or k >= n/8), with k = 0 and k = n, up to
  // n = 10^6. Every draw must equal both references' and consume the
  // stream alike.
  Rng gen(53);
  std::vector<std::pair<std::size_t, std::size_t>> cases = {
      {0, 0}, {1, 0}, {1, 1}, {8, 8}, {9, 9}, {781, 3}, {100'000, 5},
      {1'000'000, 0}, {1'000'000, 1}, {1'000'000, 8}, {1'000'000, 9}};
  for (int t = 0; t < 400; ++t) {
    const std::size_t n = 1 + gen.below(t % 2 == 0 ? 1024 : 200'000);
    const std::size_t k = t % 5 == 0   ? n
                          : t % 7 == 0 ? 0
                                       : gen.below(std::min<std::size_t>(n, 24) + 1);
    cases.emplace_back(n, k);
  }
  std::vector<std::size_t> got;
  for (const auto& [n, k] : cases) {
    const std::uint64_t seed = gen.next();
    Rng rng(seed), dense(seed), sparse(seed);
    rng.sample_indices_into(n, k, got);
    ASSERT_EQ(got, reference_dense(dense, n, k)) << "n=" << n << " k=" << k;
    ASSERT_EQ(got, reference_sparse(sparse, n, k)) << "n=" << n << " k=" << k;
    const std::uint64_t after = rng.next();
    EXPECT_EQ(dense.next(), after) << "n=" << n << " k=" << k;
    EXPECT_EQ(sparse.next(), after) << "n=" << n << " k=" << k;
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(43);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  auto shuffled_sorted = v;
  std::sort(shuffled_sorted.begin(), shuffled_sorted.end());
  EXPECT_EQ(shuffled_sorted, sorted);
}

TEST(Rng, PickReturnsElement) {
  Rng r(47);
  std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 50; ++i) {
    int x = r.pick(v);
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

TEST(Rng, ForkIndependent) {
  Rng a(99);
  Rng b = a.fork();
  // Forked stream differs from parent's continuation.
  EXPECT_NE(a.next(), b.next());
}

}  // namespace
}  // namespace ares
