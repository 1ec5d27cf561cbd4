#include "space/descriptor_store.h"

#include <cassert>

namespace ares {

void DescriptorStore::put(NodeId id, const Point& values) {
  assert(static_cast<int>(values.size()) == space_->dimensions());
  // id + 1 would wrap to 0 and the resize below would truncate every row.
  assert(id != kInvalidNode);
  if (id >= present_.size()) {
    present_.resize(id + 1, 0);
    values_.resize(present_.size() * dims_, 0);
    coords_.resize(present_.size() * dims_, 0);
  }
  const bool registered = present_[id] != 0;
  if (!registered) {
    present_[id] = 1;
    ++rows_;
  } else {
    // Equality skip: redundant writes of an unchanged profile (the common
    // receive-path case) must not store — under sharded execution a read
    // of a present row may be concurrent, and a byte-identical store is
    // still a data race to a sanitizer.
    bool same = true;
    const AttrValue* row = &values_[id * dims_];
    for (std::size_t i = 0; i < dims_; ++i) same = same && row[i] == values[i];
    if (same) return;
  }
  bool moved = false;
  for (std::size_t i = 0; i < dims_; ++i) {
    const CellIndex cell = space_->cell_index(static_cast<int>(i), values[i]);
    moved = moved || coords_[id * dims_ + i] != cell;
    values_[id * dims_ + i] = values[i];
    coords_[id * dims_ + i] = cell;
  }
  if (registered && moved) ++moves_;
}

}  // namespace ares
