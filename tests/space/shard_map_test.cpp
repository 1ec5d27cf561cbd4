/// Cell-prefix shard partitioning (shard_of_coord, space/cells.h): the shard
/// key the sharded simulator (sim/simulator.h) uses to place nodes. Three
/// contracts matter for correctness and are pinned here:
///
///   1. Totality/determinism — every coord maps to exactly one shard in
///      [0, S), as a pure function of (space geometry, coord, S). Churn
///      cannot remap survivors: a node's shard never depends on who else is
///      in the network.
///   2. Balance — splitting the b-bit interleaved key range into S
///      contiguous fixed-point slices gives slice sizes within 1 key of each
///      other, i.e. population ratio <= ceil(2^b/S)/floor(2^b/S) <= 2 for
///      uniformly distributed coords.
///   3. Locality — the slice split is monotone in the MSB-first interleaved
///      key, so nodes sharing a coarse-cell prefix land on the same or
///      adjacent shards (the selective-gossip traffic pattern stays mostly
///      intra-shard).

#include "space/cells.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"
#include "workload/distributions.h"

namespace ares {
namespace {

std::vector<CellCoord> all_level0_coords(const AttributeSpace& s) {
  const CellIndex per_dim = static_cast<CellIndex>(1U << s.max_level());
  const int d = s.dimensions();
  std::vector<CellCoord> out;
  CellCoord cur;
  for (int i = 0; i < d; ++i) cur.push_back(0);
  while (true) {
    out.push_back(cur);
    int j = d - 1;
    for (; j >= 0; --j) {
      if (++cur[j] < per_dim) break;
      cur[j] = 0;
    }
    if (j < 0) break;
  }
  return out;
}

TEST(ShardMap, EveryCoordMapsToExactlyOneShardInRange) {
  auto s = AttributeSpace::uniform(3, 3, 0, 80);
  auto gen = uniform_points(s, 0, 80);
  Rng rng(7);
  for (std::uint32_t shards : {1u, 2u, 3u, 8u, 64u}) {
    for (int i = 0; i < 500; ++i) {
      CellCoord c = s.coord_of(gen(rng));
      std::uint32_t sh = shard_of_coord(s, c, shards);
      EXPECT_LT(sh, shards);
      // Pure function: recomputation agrees.
      EXPECT_EQ(sh, shard_of_coord(s, c, shards));
    }
  }
}

TEST(ShardMap, SingleShardAndDegenerateSpaceMapToZero) {
  auto s = AttributeSpace::uniform(2, 3, 0, 80);
  EXPECT_EQ(shard_of_coord(s, {5, 2}, 0), 0u);
  EXPECT_EQ(shard_of_coord(s, {5, 2}, 1), 0u);
}

TEST(ShardMap, KeySlicePopulationsWithinDocumentedBound) {
  // d=2, L=3: 64 level-0 cells, all enumerable. The fixed-point split must
  // put within-1 key counts in every slice — the ceil/floor <= 2 bound from
  // the header, exactly.
  auto s = AttributeSpace::uniform(2, 3, 0, 80);
  auto coords = all_level0_coords(s);
  ASSERT_EQ(coords.size(), 64u);
  for (std::uint32_t shards : {2u, 3u, 5u, 8u, 64u}) {
    std::map<std::uint32_t, std::size_t> pop;
    for (const CellCoord& c : coords) ++pop[shard_of_coord(s, c, shards)];
    ASSERT_EQ(pop.size(), std::min<std::size_t>(shards, coords.size()));
    std::size_t lo = coords.size(), hi = 0;
    for (const auto& [sh, n] : pop) {
      lo = std::min(lo, n);
      hi = std::max(hi, n);
    }
    EXPECT_LE(hi - lo, 1u) << "shards=" << shards;
    EXPECT_LE(hi, (coords.size() + shards - 1) / shards) << "shards=" << shards;
  }
}

TEST(ShardMap, MonotoneInInterleavedKeyOrder) {
  // Enumerating coords in MSB-first interleaved-key order must yield a
  // nondecreasing shard sequence: contiguous slices, so a coarse-cell
  // subtree spans at most adjacent shards.
  auto s = AttributeSpace::uniform(2, 3, 0, 80);
  auto coords = all_level0_coords(s);
  std::map<std::uint64_t, std::uint32_t> by_key;
  for (const CellCoord& c : coords) {
    std::uint64_t key = 0;
    for (int b = s.max_level() - 1; b >= 0; --b)
      for (std::size_t j = 0; j < c.size(); ++j)
        key = (key << 1) | ((c[j] >> b) & 1U);
    by_key[key] = shard_of_coord(s, c, 8);
  }
  std::uint32_t prev = 0;
  for (const auto& [key, sh] : by_key) {
    EXPECT_GE(sh, prev);
    prev = sh;
  }
}

TEST(ShardMap, RemappingUnderChurnIsDeterministic) {
  // A churn wave removes half the nodes; survivors' shard assignments are
  // untouched, and a departed node that rejoins with the same values gets
  // its old shard back. (shard_of_coord sees only the coord, but this is
  // the property the sharded Network relies on, so pin it end to end.)
  auto s = AttributeSpace::uniform(3, 3, 0, 80);
  auto gen = uniform_points(s, 0, 80);
  Rng rng(11);
  std::vector<CellCoord> population;
  for (int i = 0; i < 200; ++i) population.push_back(s.coord_of(gen(rng)));

  std::vector<std::uint32_t> before;
  for (const CellCoord& c : population) before.push_back(shard_of_coord(s, c, 8));

  // "Churn": drop the odd-indexed half, then recompute the survivors.
  for (std::size_t i = 0; i < population.size(); i += 2) {
    EXPECT_EQ(shard_of_coord(s, population[i], 8), before[i]);
  }
  // Rejoin with identical values -> identical shard.
  EXPECT_EQ(shard_of_coord(s, population[1], 8), before[1]);
}

}  // namespace
}  // namespace ares
