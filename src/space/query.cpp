#include "space/query.h"

#include <cassert>

namespace ares {

RangeQuery RangeQuery::any(int dimensions) {
  return RangeQuery(std::vector<AttrRange>(static_cast<std::size_t>(dimensions)));
}

RangeQuery& RangeQuery::with(int d, std::optional<AttrValue> lo,
                             std::optional<AttrValue> hi) {
  assert(d >= 0 && d < dimensions());
  ranges_[static_cast<std::size_t>(d)] = AttrRange{lo, hi};
  return *this;
}

RangeQuery& RangeQuery::with_dynamic(std::size_t index, std::optional<AttrValue> lo,
                                     std::optional<AttrValue> hi) {
  dynamic_filters_.push_back(DynamicFilter{index, AttrRange{lo, hi}});
  return *this;
}

bool RangeQuery::matches(const Point& p) const {
  assert(p.size() >= ranges_.size());
  return matches(p.data());
}

bool RangeQuery::matches(const AttrValue* row) const {
  for (std::size_t d = 0; d < ranges_.size(); ++d)
    if (!ranges_[d].contains(row[d])) return false;
  return true;
}

bool RangeQuery::matches_dynamic(const AttrValues& dynamic_values) const {
  for (const auto& f : dynamic_filters_) {
    if (f.index >= dynamic_values.size()) return false;
    if (!f.range.contains(dynamic_values[f.index])) return false;
  }
  return true;
}

Region RangeQuery::to_region(const AttributeSpace& space) const {
  assert(space.dimensions() == dimensions());
  IntervalVec ivs(ranges_.size());
  const CellIndex last = space.cells_per_dim() - 1;
  for (int d = 0; d < dimensions(); ++d) {
    const auto& r = ranges_[static_cast<std::size_t>(d)];
    CellIndex lo = r.lo ? space.cell_index(d, *r.lo) : 0;
    CellIndex hi = r.hi ? space.cell_index(d, *r.hi) : last;
    ivs[static_cast<std::size_t>(d)] = {lo, hi};
  }
  return Region(ivs);
}

}  // namespace ares
