#include "space/cells.h"

#include <cassert>

namespace ares {

bool Cells::same_cell(const CellCoord& a, const CellCoord& b, int level) const {
  assert(a.size() == b.size());
  for (std::size_t d = 0; d < a.size(); ++d)
    if (at_level(a[d], level) != at_level(b[d], level)) return false;
  return true;
}

Region Cells::cell_region(const CellCoord& c, int level) const {
  IntervalVec ivs(c.size());
  for (std::size_t d = 0; d < c.size(); ++d) {
    CellIndex base = at_level(c[d], level) << level;
    ivs[d] = {base, static_cast<CellIndex>(base + (CellIndex{1} << level) - 1)};
  }
  return Region(ivs);
}

Region Cells::neighbor_region(const CellCoord& c, int level, int dim) const {
  assert(level >= 1 && level <= space_->max_level());
  assert(dim >= 0 && dim < space_->dimensions());
  const int half = level - 1;  // half of C_level == a C_(level-1)-scale slab
  IntervalVec ivs(c.size());
  for (int j = 0; j < static_cast<int>(c.size()); ++j) {
    const CellIndex idx0 = c[static_cast<std::size_t>(j)];
    CellIndex slab;  // level-(l-1) index of the slab this dimension spans
    if (j < dim) {
      slab = at_level(idx0, half);  // X's own half
    } else if (j == dim) {
      slab = at_level(idx0, half) ^ 1;  // the sibling half
    } else {
      // dims > k: the full extent of C_level.
      CellIndex base = at_level(idx0, level) << level;
      ivs[static_cast<std::size_t>(j)] = {
          base, static_cast<CellIndex>(base + (CellIndex{1} << level) - 1)};
      continue;
    }
    CellIndex base = slab << half;
    ivs[static_cast<std::size_t>(j)] = {
        base, static_cast<CellIndex>(base + (CellIndex{1} << half) - 1)};
  }
  return Region(ivs);
}

std::uint32_t shard_of_coord(const AttributeSpace& space, const CellCoord& coord,
                             std::uint32_t shards) {
  if (shards <= 1) return 0;
  assert(coord.size() == static_cast<std::size_t>(space.dimensions()));
  std::uint64_t key = 0;
  int bits = 0;
  // MSB-first interleave: bit (L-1) of every dimension, then bit (L-2), ...
  // — the prefix of `key` is the coarse-cell path of the coord.
  for (int b = space.max_level() - 1; b >= 0 && bits < 32; --b)
    for (std::size_t j = 0; j < coord.size() && bits < 32; ++j) {
      key = (key << 1) | ((coord[j] >> b) & 1U);
      ++bits;
    }
  if (bits == 0) return 0;  // degenerate space: a single level-0 cell
  // Fixed-point split of the key range into `shards` contiguous slices.
  return static_cast<std::uint32_t>((key * shards) >> bits);
}

std::uint64_t Cells::cell_key(const CellCoord& c, int level) const {
  std::uint64_t h = hash_mix(kFnvOffset, static_cast<std::uint64_t>(level));
  for (CellIndex idx0 : c) h = hash_mix(h, at_level(idx0, level));
  return h;
}

}  // namespace ares
