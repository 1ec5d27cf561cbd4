#pragma once

/// \file query.h
/// Multi-attribute range queries (§3): a conjunction of per-attribute value
/// ranges. A query demarcates a subregion Q of the attribute space; nodes
/// whose attribute values fall inside all ranges match.
///
/// Ranges may leave either bound unspecified ("the job may specify both of
/// them, only one, or even none"). Queries can additionally carry *dynamic
/// attribute filters* (paper §4.2 footnote): predicates over node attributes
/// that are NOT routed on — each visited node checks them locally. This
/// models rapidly-changing attributes such as currently-free disk space.

#include <cstdint>
#include <optional>
#include <vector>

#include "space/region.h"

namespace ares {

/// One attribute's requested value interval; unset bounds are unconstrained.
struct AttrRange {
  std::optional<AttrValue> lo;  // inclusive
  std::optional<AttrValue> hi;  // inclusive

  bool contains(AttrValue v) const {
    if (lo && v < *lo) return false;
    if (hi && v > *hi) return false;
    return true;
  }
  bool unconstrained() const { return !lo && !hi; }

  friend bool operator==(const AttrRange&, const AttrRange&) = default;
};

/// A resource-selection query over the routed attribute dimensions, plus
/// optional local filters over a node's dynamic attributes.
class RangeQuery {
 public:
  /// One local filter over a node's dynamic attribute vector.
  struct DynamicFilter {
    std::size_t index;
    AttrRange range;
    friend bool operator==(const DynamicFilter&, const DynamicFilter&) = default;
  };

  RangeQuery() = default;
  explicit RangeQuery(std::vector<AttrRange> ranges) : ranges_(std::move(ranges)) {}

  /// Fully unconstrained query over `d` dimensions (matches everything).
  static RangeQuery any(int dimensions);

  int dimensions() const { return static_cast<int>(ranges_.size()); }
  const AttrRange& range(int d) const { return ranges_[static_cast<std::size_t>(d)]; }

  /// Sets dimension d's range (builder style).
  RangeQuery& with(int d, std::optional<AttrValue> lo, std::optional<AttrValue> hi);

  /// Adds a dynamic-attribute filter: node.dynamic_values[index] must lie in
  /// [lo, hi]. Checked locally by visited nodes, never routed on.
  RangeQuery& with_dynamic(std::size_t index, std::optional<AttrValue> lo,
                           std::optional<AttrValue> hi);

  /// Exact match of the routed ranges against a point.
  bool matches(const Point& p) const;

  /// As above, against a row of dimensions() values in place
  /// (DescriptorStore::values_ptr, or Point::data()).
  bool matches(const AttrValue* row) const;

  /// Match of the dynamic filters against a node's dynamic attribute vector.
  /// Filters referencing indices beyond the vector fail the match.
  bool matches_dynamic(const AttrValues& dynamic_values) const;

  bool has_dynamic_filters() const { return !dynamic_filters_.empty(); }

  /// Heap bytes the ranges and filters hold.
  std::size_t memory_bytes() const {
    return ranges_.capacity() * sizeof(AttrRange) +
           dynamic_filters_.capacity() * sizeof(DynamicFilter);
  }
  const std::vector<DynamicFilter>& dynamic_filters() const { return dynamic_filters_; }

  /// Level-0 index-space region covered by the routed ranges. Conservative-
  /// exact at cell granularity: a level-0 cell is inside the region iff the
  /// query's value range intersects the cell's value extent.
  Region to_region(const AttributeSpace& space) const;

  friend bool operator==(const RangeQuery&, const RangeQuery&) = default;

 private:
  std::vector<AttrRange> ranges_;
  std::vector<DynamicFilter> dynamic_filters_;
};

}  // namespace ares
