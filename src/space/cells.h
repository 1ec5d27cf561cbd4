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

#include <bit>
#include <cassert>
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

  /// Region of the neighboring subcell N(level,dim) of the node at `c`, a
  /// row of d level-0 indices as classify() takes.
  /// Precondition: 1 <= level <= max_level, 0 <= dim < d.
  Region neighbor_region(const CellIndex* c, int level, int dim) const;
  Region neighbor_region(const CellCoord& c, int level, int dim) const {
    assert(c.size() == static_cast<std::size_t>(space_->dimensions()));
    return neighbor_region(c.data(), level, dim);
  }

  /// Classifies where `other` sits relative to `self`, both given as rows of
  /// d level-0 indices (DescriptorStore::coord_ptr, or CellCoord::data()):
  ///   - level 0  -> same level-0 cell (neighborsZero candidate)
  ///   - (l, k)   -> other in N(l,k)(self)
  ///   - nullopt  -> the two differ at an index bit >= max_level, i.e. one
  ///     of them lies outside the space. In-range coords always classify:
  ///     the N(l,k) subcells plus C_0 partition the whole space.
  ///
  /// O(d) and branch-free over the dimensions. The two share C_l exactly
  /// when every per-dimension XOR is below 2^l, so the smallest common
  /// level is the bit width of the XORs' union. The slot dimension is the
  /// first dimension whose XOR reaches bit level-1: its level-(l-1) half
  /// differs, and every earlier dimension shares self's half.
  std::optional<CellSlot> classify(const CellIndex* self, const CellIndex* other) const {
    const int d = space_->dimensions();
    CellIndex diff = 0;
    for (int j = 0; j < d; ++j) diff |= self[j] ^ other[j];
    const int level = std::bit_width(diff);
    if (level == 0) return CellSlot{0, -1};
    if (level > space_->max_level()) return std::nullopt;
    const CellIndex half = CellIndex{1} << (level - 1);
    std::uint32_t differs = 0;  // bit j: dimension j's half differs
    for (int j = 0; j < d; ++j)
      differs |= std::uint32_t{(self[j] ^ other[j]) >= half} << j;
    return CellSlot{level, std::countr_zero(differs)};
  }
  std::optional<CellSlot> classify(const CellCoord& self, const CellCoord& other) const {
    assert(self.size() == other.size());
    assert(self.size() == static_cast<std::size_t>(space_->dimensions()));
    return classify(self.data(), other.data());
  }

  /// Stable hash key of the level-l cell containing `c`, a row of d level-0
  /// indices as classify() takes (keyed by level too, so keys from
  /// different levels never collide structurally).
  std::uint64_t cell_key(const CellIndex* c, int level) const;

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
