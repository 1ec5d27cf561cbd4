#pragma once

/// \file routing_table.h
/// A node's links (§4.1): the neighborsZero set (every known cohabitant of
/// its level-0 cell) plus, per neighboring subcell N(l,k), a small list of
/// candidate neighbors — the first is the paper's n(l,k), the rest are
/// backups used by the timeout-and-reforward recovery (§4.3).
///
/// Entries carry gossip ages; the table keeps the youngest entry per peer
/// and can purge stale entries, which is how dead links wash out under
/// churn ("the overlay merely reconfigures to repair the broken links").
///
/// Storage: entries are 8-byte CompactPeer handles (profiles live in the
/// shared DescriptorStore), and the N(l,k) slots live in one flat
/// fixed-capacity pool — a single allocation instead of levels x dims
/// vectors per node. At N = 1M nodes this is the difference between ~10 KB
/// and ~0.5 KB of routing state per node.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gossip/peer.h"
#include "space/cells.h"

namespace ares {

struct RoutingConfig {
  /// Candidates kept per N(l,k) slot (primary + backups). Must be >= 1.
  std::size_t slot_capacity = 3;
  /// Cap on the neighborsZero set; 0 = unbounded. The paper expects level-0
  /// cells to be small ("only nodes strictly identical to each other").
  std::size_t zero_capacity = 0;
};

class RoutingTable {
 public:
  RoutingTable(const Cells& cells, CellCoord self_coord, NodeId self_id,
               RoutingConfig cfg, DescriptorStore& store);

  int levels() const { return cells_.space().max_level(); }
  int dims() const { return cells_.space().dimensions(); }

  /// Classifies `d` relative to this node and stores it in the right slot
  /// (or neighborsZero). Duplicate ids are refreshed with the younger
  /// entry. Self is ignored. Registers unknown peers in the store.
  void offer(const PeerDescriptor& d);

  /// As offer(), for a peer already registered in the store (the gossip
  /// views hand their entries over this seam every cycle).
  void offer(CompactPeer c);

  /// Removes a peer from every slot (known dead).
  void remove(NodeId id);

  /// Ages every entry by one gossip cycle.
  void age_all();

  /// Drops entries older than `max_age` cycles.
  void drop_older_than(std::uint32_t max_age);

  void clear();

  /// The paper's n(l,k): primary (youngest) candidate for slot (level,dim);
  /// nullptr when no node of that subcell is known (possibly an empty cell).
  const CompactPeer* neighbor(int level, int dim) const;

  /// Youngest slot candidate whose id is not in `excluded`; nullptr if none.
  const CompactPeer* alternate(int level, int dim,
                               const std::vector<NodeId>& excluded) const;

  /// Like alternate(), but prefers a candidate whose coordinates lie inside
  /// `target` (a forwarded query's region): such a neighbor matches the
  /// query itself, saving one overhead hop. Falls back to the youngest
  /// non-excluded candidate. This is a local optimization the paper leaves
  /// open (it keeps exactly one link per subcell); see
  /// bench/ablation_query_shape.
  const CompactPeer* best_for_region(int level, int dim,
                                     const std::vector<NodeId>& excluded,
                                     const Region& target) const;

  /// All candidates of a slot, youngest first.
  std::span<const CompactPeer> slot(int level, int dim) const;

  /// The neighborsZero set (known cohabitants of this node's level-0 cell).
  const std::vector<CompactPeer>& zero() const { return zero_; }

  /// Number of distinct peers linked (zero set + slot entries, deduped).
  std::size_t link_count() const;

  /// The paper's Fig. 10 notion of "neighbors per node": the neighborsZero
  /// list plus one link per populated N(l,k) slot (primaries only, deduped).
  std::size_t primary_link_count() const;

  /// Number of slots with at least one candidate.
  std::size_t populated_slots() const;

  const CellCoord& self_coord() const { return self_coord_; }

  /// The object plus the slot pool and neighborsZero storage it owns.
  std::size_t memory_bytes() const {
    return sizeof(*this) + pool_.capacity() * sizeof(CompactPeer) +
           counts_.capacity() * sizeof(std::uint16_t) +
           zero_.capacity() * sizeof(CompactPeer);
  }

 private:
  std::size_t slot_index(int level, int dim) const;
  void offer_classified(CompactPeer c, const CellSlot& slot);
  void insert_slot(std::size_t si, CompactPeer c);
  static void insert_sorted(std::vector<CompactPeer>& v, CompactPeer c,
                            std::size_t cap);

  const Cells& cells_;
  CellCoord self_coord_;
  NodeId self_id_;
  RoutingConfig cfg_;
  DescriptorStore& store_;
  /// Flat slot pool: slot (level,dim) owns the fixed-capacity range
  /// [slot_index * slot_capacity, +slot_capacity), of which counts_[i] are
  /// live, kept sorted youngest-first.
  std::vector<CompactPeer> pool_;
  std::vector<std::uint16_t> counts_;
  std::vector<CompactPeer> zero_;
};

}  // namespace ares
