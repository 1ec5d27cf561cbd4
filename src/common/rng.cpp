#include "common/rng.h"

#include <array>
#include <cassert>
#include <cmath>
#include <numbers>
#include <unordered_map>

namespace ares {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  assert(bound > 0);
  // Debiased modulo (Lemire-style rejection kept simple and branch-light).
  std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  assert(lo <= hi);
  std::uint64_t span = hi - lo;
  if (span == std::numeric_limits<std::uint64_t>::max()) return next();
  return lo + below(span + 1);
}

double Rng::uniform() {
  // 53 random mantissa bits.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal() {
  // Box-Muller; draw u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Rng::chance(double p) { return uniform() < p; }

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  assert(n > 0);
  // Inverse-CDF over the (small) support; callers use modest n.
  double total = 0.0;
  for (std::uint64_t r = 0; r < n; ++r) total += 1.0 / std::pow(static_cast<double>(r + 1), s);
  double u = uniform() * total;
  double acc = 0.0;
  for (std::uint64_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    if (u <= acc) return r;
  }
  return n - 1;
}

std::size_t Rng::index(std::size_t size) {
  assert(size > 0);
  return static_cast<std::size_t>(below(size));
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  std::vector<std::size_t> idx;
  sample_indices_into(n, k, idx);
  return idx;
}

void Rng::sample_indices_into(std::size_t n, std::size_t k, std::vector<std::size_t>& out) {
  assert(k <= n);
  // Partial Fisher-Yates. All three branches make the same RNG draws and
  // produce the same indices; the split is purely a cost choice, so recorded
  // runs stay bit-identical regardless of which path a call takes.
  constexpr std::size_t kFlat = 8;
  if (k <= kFlat) {
    // Small k (gossip subsets, oracle slot draws, introducers): step i
    // displaces at most one position, so at most k (position, value) pairs
    // differ from the identity. A flat array searched linearly holds them,
    // whatever n is.
    std::array<std::pair<std::size_t, std::size_t>, kFlat> displaced;
    std::size_t moved = 0;
    auto value_at = [&displaced, &moved](std::size_t pos) {
      for (std::size_t m = 0; m < moved; ++m)
        if (displaced[m].first == pos) return displaced[m].second;
      return pos;
    };
    out.clear();
    out.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + index(n - i);
      const std::size_t vj = value_at(j);
      const std::size_t vi = value_at(i);
      std::size_t m = 0;
      while (m < moved && displaced[m].first != j) ++m;
      if (m == moved) ++moved;
      displaced[m] = {j, vi};
      out.push_back(vj);
    }
    return;
  }
  if (n <= 1024 || k >= n / 8) {
    // Dense: materialize the identity permutation and swap in place.
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t j = i + index(n - i);
      std::swap(out[i], out[j]);
    }
    out.resize(k);
    return;
  }
  // Sparse: only positions actually touched by a swap are tracked, so a
  // k-sample from a large population costs O(k) instead of O(n). Without
  // this, sampling bootstrap introducers on every join made large-n grid
  // construction quadratic.
  out.clear();
  out.reserve(k);
  std::unordered_map<std::size_t, std::size_t> displaced;
  displaced.reserve(2 * k);
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + index(n - i);
    auto it = displaced.find(j);
    std::size_t vj = it == displaced.end() ? j : it->second;
    // Position i is never revisited (future j >= future i > i), so only the
    // value swapped into position j needs recording.
    auto self = displaced.find(i);
    displaced[j] = self == displaced.end() ? i : self->second;
    out.push_back(vj);
  }
}

Rng Rng::fork() { return Rng(next()); }

}  // namespace ares
