#pragma once

/// \file descriptor_store.h
/// Deduplicated SoA storage for node attribute profiles.
///
/// Before this store existed, every view slot, routing-table slot, and
/// staging buffer held a flat 216-byte PeerDescriptor (inline Point + inline
/// CellCoord). With ~100 descriptor copies per node that put the fig06 sweep
/// at ~23 KB/node — the wall that capped reproduction at N=100k. The store
/// keeps exactly one row per NodeId — d attribute values (8 B each) plus d
/// level-0 cell indices (4 B each) — and the gossip/routing layers hold
/// 8-byte {id, age} handles (CompactPeer, gossip/peer.h), materializing a
/// full PeerDescriptor only at the wire boundary.
///
/// Ownership and write discipline:
///   - One store per deployment (Grid owns it; unit tests construct their
///     own). Rows are keyed by dense NodeId — the id allocator is
///     monotonically increasing, so a flat array indexed by id works.
///   - put() is the authoritative write: node registration (a node `start()`s
///     and records its own profile) and attribute changes (set_values).
///   - put_if_absent() is the receive-path write: descriptors arriving in
///     gossip/bootstrap messages register unknown ids but never overwrite —
///     a stale descriptor still circulating must not roll back a newer
///     profile.
///
/// Sharded-execution contract (sim/simulator.h): every id is registered by the
/// coordinator (between windows) before any worker can reference it, so
/// worker-phase put_if_absent() calls always hit the present-row early
/// return and never write — reads are data-race-free without locks.

#include <cstdint>
#include <vector>

#include "space/attribute_space.h"

namespace ares {

class DescriptorStore {
 public:
  explicit DescriptorStore(const AttributeSpace& space)
      : space_(&space), dims_(static_cast<std::size_t>(space.dimensions())) {}

  const AttributeSpace& space() const { return *space_; }
  int dimensions() const { return static_cast<int>(dims_); }

  /// Pre-sizes the row arrays for `nodes` ids (amortizes growth; required
  /// before sharded execution so worker reads never race a reallocation).
  void reserve(std::size_t nodes) {
    values_.reserve(nodes * dims_);
    coords_.reserve(nodes * dims_);
    present_.reserve(nodes);
  }

  /// Authoritative write: records (or overwrites) `id`'s profile.
  void put(NodeId id, const Point& values);

  /// Receive-path write: registers `id` only when unknown. Never overwrites
  /// (see the write-discipline note above). Returns true when it wrote.
  bool put_if_absent(NodeId id, const Point& values) {
    if (contains(id)) return false;
    put(id, values);
    return true;
  }

  bool contains(NodeId id) const { return id < present_.size() && present_[id] != 0; }

  /// Ids below this have a row slot, so put_if_absent() on them never grows
  /// the arrays. Every backend put()s an id before a message can name it.
  NodeId id_bound() const { return static_cast<NodeId>(present_.size()); }

  /// Raw row access. Precondition: contains(id).
  const AttrValue* values_ptr(NodeId id) const { return &values_[id * dims_]; }
  const CellIndex* coord_ptr(NodeId id) const { return &coords_[id * dims_]; }

  /// Materialized (inline-storage) copies of a row. Precondition: contains(id).
  Point point_of(NodeId id) const {
    Point p;
    const AttrValue* v = values_ptr(id);
    for (std::size_t i = 0; i < dims_; ++i) p.push_back(v[i]);
    return p;
  }
  CellCoord coord_of(NodeId id) const {
    CellCoord c;
    const CellIndex* v = coord_ptr(id);
    for (std::size_t i = 0; i < dims_; ++i) c.push_back(v[i]);
    return c;
  }

  /// Number of registered rows.
  std::size_t size() const { return rows_; }

  /// put()s that moved a registered row to another level-0 cell. Every
  /// routing slot a peer occupies derives from its cell, so a table that
  /// classified the peer before a move may place it elsewhere after.
  std::uint32_t moves() const { return moves_; }

  /// Bytes held by the row arrays (the memory the 216-byte copies used to
  /// multiply; reported by the benchmarks).
  std::size_t memory_bytes() const {
    return values_.capacity() * sizeof(AttrValue) +
           coords_.capacity() * sizeof(CellIndex) + present_.capacity();
  }

 private:
  const AttributeSpace* space_;
  std::size_t dims_;
  std::size_t rows_ = 0;
  std::uint32_t moves_ = 0;
  // SoA row arrays: these are the ONE place flat descriptor storage is the
  // point — inline-storage Points here would re-inflate every row to the
  // 216-byte layout this store exists to eliminate.
  AttrValueRows values_;  // flattened, d elems per id (common/types.h)
  CellIndexRows coords_;  // flattened, d elems per id (common/types.h)
  std::vector<std::uint8_t> present_;
};

}  // namespace ares
