#include "core/routing_table.h"

#include <algorithm>
#include <cassert>

#include "common/sorted.h"

namespace ares {

namespace {

/// Slot ordering: youngest first, ids break ties. Total and deterministic
/// (distinct peers never compare equal), so slot contents are a pure
/// function of the offered entry set.
bool slot_less(CompactPeer a, CompactPeer b) {
  return a.age != b.age ? a.age < b.age : a.id < b.id;
}

}  // namespace

RoutingTable::RoutingTable(const Cells& cells, NodeId self_id,
                           const RoutingConfig& cfg, DescriptorStore& store)
    : cells_(cells), cfg_(cfg), store_(store), self_id_(self_id) {
  assert(cfg_.slot_capacity >= 1);
  assert(store_.contains(self_id_));
  const std::size_t n =
      static_cast<std::size_t>(levels()) * static_cast<std::size_t>(dims());
  pool_.resize(n * cfg_.slot_capacity);
  counts_.resize(n, 0);
}

std::size_t RoutingTable::slot_index(int level, int dim) const {
  assert(level >= 1 && level <= levels());
  assert(dim >= 0 && dim < dims());
  return static_cast<std::size_t>(level - 1) * static_cast<std::size_t>(dims()) +
         static_cast<std::size_t>(dim);
}

void RoutingTable::insert_sorted(std::vector<CompactPeer>& v, CompactPeer c,
                                 std::size_t cap) {
  // The vector is kept sorted by slot_less at all times, so refreshing an
  // entry is erase + positioned re-insert instead of a full re-sort.
  auto by_id = std::find_if(v.begin(), v.end(),
                            [c](CompactPeer e) { return e.id == c.id; });
  if (by_id != v.end()) {
    if (c.age >= by_id->age) return;  // existing entry is at least as fresh
    v.erase(by_id);
  }
  v.insert(std::lower_bound(v.begin(), v.end(), c, slot_less), c);
  if (cap != 0 && v.size() > cap) v.resize(cap);
}

void RoutingTable::insert_slot(std::size_t si, CompactPeer c) {
  CompactPeer* base = &pool_[si * cfg_.slot_capacity];
  std::uint16_t n = counts_[si];
  for (std::uint16_t i = 0; i < n; ++i) {
    if (base[i].id != c.id) continue;
    if (c.age >= base[i].age) return;  // existing entry is at least as fresh
    std::copy(base + i + 1, base + n, base + i);  // erase; reinsert below
    --n;
    break;
  }
  std::uint16_t pos = 0;
  while (pos < n && slot_less(base[pos], c)) ++pos;
  if (pos >= cfg_.slot_capacity) return;  // ranks below every kept candidate
  const std::uint16_t kept =
      std::min<std::uint16_t>(n, static_cast<std::uint16_t>(cfg_.slot_capacity - 1));
  std::copy_backward(base + pos, base + kept, base + kept + 1);
  base[pos] = c;
  counts_[si] = static_cast<std::uint16_t>(std::min<std::size_t>(
      static_cast<std::size_t>(n) + 1, cfg_.slot_capacity));
}

void RoutingTable::offer(const PeerDescriptor& d) {
  if (d.id == self_id_) return;
  store_.put_if_absent(d.id, d.values);
  offer(CompactPeer{d.id, d.age});
}

void RoutingTable::offer(CompactPeer c) {
  if (c.id == self_id_) return;
  assert(store_.contains(c.id));
  auto slot = cells_.classify(store_.coord_ptr(self_id_), store_.coord_ptr(c.id));
  if (!slot) return;  // coords outside the space
  offer_classified(c, *slot);
}

void RoutingTable::offer_classified(CompactPeer c, const CellSlot& slot) {
  if (slot.level == 0) {
    insert_sorted(zero_, c, cfg_.zero_capacity);
  } else {
    insert_slot(slot_index(slot.level, slot.dim), c);
  }
}

void RoutingTable::remove(NodeId id) {
  drop_if([id](CompactPeer e) { return e.id == id; });
}

void RoutingTable::age_all() {
  for (auto& e : zero_) ++e.age;
  for (std::size_t si = 0; si < counts_.size(); ++si) {
    CompactPeer* base = &pool_[si * cfg_.slot_capacity];
    for (std::uint16_t i = 0; i < counts_[si]; ++i) ++base[i].age;
  }
}

void RoutingTable::drop_older_than(std::uint32_t max_age) {
  drop_if([max_age](CompactPeer e) { return e.age > max_age; });
}

void RoutingTable::clear() {
  if (!zero_.empty() || populated_slots() != 0) ++losses_;
  zero_.clear();
  std::fill(counts_.begin(), counts_.end(), 0);
}

template <class Pred>
void RoutingTable::drop_if(Pred drop) {
  bool lost = std::erase_if(zero_, drop) != 0;
  for (std::size_t si = 0; si < counts_.size(); ++si) {
    CompactPeer* base = &pool_[si * cfg_.slot_capacity];
    const std::uint16_t n = counts_[si];
    std::uint16_t w = 0;
    for (std::uint16_t i = 0; i < n; ++i)
      if (!drop(base[i])) base[w++] = base[i];
    lost = lost || w != n;
    counts_[si] = w;
  }
  if (lost) ++losses_;
}

const CompactPeer* RoutingTable::neighbor(int level, int dim) const {
  const std::size_t si = slot_index(level, dim);
  return counts_[si] == 0 ? nullptr : &pool_[si * cfg_.slot_capacity];
}

const CompactPeer* RoutingTable::alternate(
    int level, int dim, const std::vector<NodeId>& excluded) const {
  for (const CompactPeer& e : slot(level, dim)) {
    if (std::find(excluded.begin(), excluded.end(), e.id) == excluded.end())
      return &e;
  }
  return nullptr;
}

const CompactPeer* RoutingTable::best_for_region(
    int level, int dim, const std::vector<NodeId>& excluded,
    const Region& target) const {
  const CompactPeer* fallback = nullptr;
  for (const CompactPeer& e : slot(level, dim)) {
    if (std::find(excluded.begin(), excluded.end(), e.id) != excluded.end()) continue;
    if (target.contains(store_.coord_of(e.id))) return &e;
    if (fallback == nullptr) fallback = &e;
  }
  return fallback;
}

std::span<const CompactPeer> RoutingTable::slot(int level, int dim) const {
  const std::size_t si = slot_index(level, dim);
  return {&pool_[si * cfg_.slot_capacity], counts_[si]};
}

std::size_t RoutingTable::link_count() const {
  FlatSet<NodeId> ids;
  for (const CompactPeer& e : zero_) ids.insert(e.id);
  for (std::size_t si = 0; si < counts_.size(); ++si)
    for (std::uint16_t i = 0; i < counts_[si]; ++i)
      ids.insert(pool_[si * cfg_.slot_capacity + i].id);
  return ids.size();
}

std::size_t RoutingTable::primary_link_count() const {
  FlatSet<NodeId> ids;
  for (const CompactPeer& e : zero_) ids.insert(e.id);
  for (std::size_t si = 0; si < counts_.size(); ++si)
    if (counts_[si] != 0) ids.insert(pool_[si * cfg_.slot_capacity].id);
  return ids.size();
}

std::size_t RoutingTable::populated_slots() const {
  std::size_t n = 0;
  for (std::uint16_t c : counts_)
    if (c != 0) ++n;
  return n;
}

}  // namespace ares
