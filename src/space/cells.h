#pragma once

/// \file cells.h
/// Cell hierarchy math (§4.1 of the paper): nested cells C_l, neighboring
/// subcells N(l,k), membership classification, and hashable cell keys.
///
/// Given a node's level-0 cell coordinates, its level-l cell index along a
/// dimension is simply (index >> l) because each level joins 2 adjacent
/// halves per dimension (2^d subcells total).
///
/// The neighboring subcell N(l,k)(X) is constructed exactly as the paper
/// describes: split C_l(X) along dimension 0, keep X's half; split that half
/// along dimension 1, keep X's half; ...; the half *not* containing X at the
/// k-th split is N(l,k)(X). Equivalently, in level-(l-1) index terms:
///   - dims j < k : Y agrees with X's level-(l-1) index ("same half")
///   - dim  j = k : Y's level-(l-1) index is X's sibling ("other half")
///   - dims j > k : Y anywhere inside C_l(X).

#include <cstdint>
#include <optional>

#include "common/hashing.h"
#include "space/region.h"

namespace ares {

/// Identifies which routing-table slot another node occupies relative to a
/// reference node: level 0 means "same level-0 cell" (the neighborsZero set,
/// dimension unused/-1); level >= 1 means the node lies in N(level,dim).
struct CellSlot {
  int level = 0;
  int dim = -1;

  friend bool operator==(const CellSlot&, const CellSlot&) = default;
};

/// Stateless helpers bound to an AttributeSpace.
class Cells {
 public:
  explicit Cells(const AttributeSpace& space) : space_(&space) {}

  const AttributeSpace& space() const { return *space_; }

  /// Level-l cell index along one dimension from the level-0 index.
  static CellIndex at_level(CellIndex idx0, int level) { return idx0 >> level; }

  /// True when `a` and `b` share the same C_l cell.
  bool same_cell(const CellCoord& a, const CellCoord& b, int level) const;

  /// Region (in level-0 index space) of the level-l cell containing `c`.
  Region cell_region(const CellCoord& c, int level) const;

  /// Region of the neighboring subcell N(level,dim) of the node at `c`.
  /// Precondition: 1 <= level <= max_level, 0 <= dim < d.
  Region neighbor_region(const CellCoord& c, int level, int dim) const;

  /// Classifies where `other` sits relative to `self`:
  ///   - level 0  -> same level-0 cell (neighborsZero candidate)
  ///   - (l, k)   -> other in N(l,k)(self)
  ///   - nullopt  -> other outside C_max(self)'s partition only when the two
  ///     coords are identical in no valid slot, which cannot happen: the
  ///     N(l,k) subcells plus C_0 partition the whole space. Hence this
  ///     always returns a value; optional is kept for defensive callers.
  std::optional<CellSlot> classify(const CellCoord& self, const CellCoord& other) const;

  /// Stable hash key of the level-l cell containing `c` (keyed by level too,
  /// so keys from different levels never collide structurally).
  std::uint64_t cell_key(const CellCoord& c, int level) const;

 private:
  const AttributeSpace* space_;
};

/// Locality-preserving shard key for sharded simulation (sim/simulator.h):
/// interleaves the level-0 cell indices most-significant-bit first (a Morton
/// prefix over the nested-cell hierarchy) and splits the resulting key range
/// into `shards` contiguous slices. Nodes sharing a coarse cell — exactly the
/// nodes the selective gossip layer and the query DFS make talk to each
/// other — therefore land on the same or adjacent shards.
///
/// Purely a function of (space geometry, coord, shards): every coord maps to
/// exactly one shard, remapping under churn is deterministic, and for
/// uniformly distributed coords the slice populations differ by at most the
/// ratio ceil(2^b/S)/floor(2^b/S) <= 2 in expectation (b = interleaved key
/// bits, S = shards; see tests/space/shard_map_test.cpp).
std::uint32_t shard_of_coord(const AttributeSpace& space, const CellCoord& coord,
                             std::uint32_t shards);

}  // namespace ares
