#pragma once

/// \file view.h
/// A partial view: the small bounded set of peer links each gossip layer
/// maintains (the paper's K_c random links and K_v selective links). Entries
/// are 8-byte CompactPeer handles — peer profiles live in the deployment's
/// DescriptorStore; the gossip layers materialize full descriptors only when
/// building messages.

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "gossip/peer.h"

namespace ares {

class View {
 public:
  explicit View(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  bool full() const { return entries_.size() >= capacity_; }

  const std::vector<CompactPeer>& entries() const { return entries_; }

  bool contains(NodeId id) const;
  const CompactPeer* find(NodeId id) const;

  /// Adds `d` if absent; if present, keeps the younger of the two
  /// entries. Returns false when the view is full
  /// and `d` is absent (caller decides replacement policy).
  bool insert_or_refresh(const CompactPeer& d);

  /// Inserts `d`, evicting the oldest entry if full. Never stores duplicates
  /// (refreshes instead).
  void insert_evicting_oldest(const CompactPeer& d);

  void remove(NodeId id);

  /// Increments every entry's age by one.
  void age_all();

  /// Drops entries with age > max_age.
  void drop_older_than(std::uint32_t max_age);

  /// Index of the entry with the highest age (ties: first). Precondition:
  /// !empty().
  std::size_t oldest_index() const;

  /// Removes and returns the oldest entry. Precondition: !empty().
  CompactPeer take_oldest();

  /// Up to `k` distinct entries chosen uniformly at random.
  std::vector<CompactPeer> random_subset(Rng& rng, std::size_t k) const;

  /// As random_subset, but fills `out` (clearing it first) so a warm caller
  /// reuses the buffer's capacity. Consumes `rng` identically to
  /// random_subset for the same k.
  void random_subset_into(Rng& rng, std::size_t k,
                          std::vector<CompactPeer>& out) const;

  /// Replaces the whole content (used by selection-function merges); the
  /// caller guarantees |v| <= capacity and no duplicates.
  void assign(std::vector<CompactPeer> v);

  /// As assign, but swaps buffers with `v` instead of moving: both the view
  /// and the caller's staging vector keep their warmed-up capacity. `v` is
  /// left holding the previous entries (callers clear it on next use).
  void adopt(std::vector<CompactPeer>& v);

  /// The object plus the entry storage it owns.
  std::size_t memory_bytes() const {
    return sizeof(*this) + entries_.capacity() * sizeof(CompactPeer);
  }

 private:
  std::size_t capacity_;
  std::vector<CompactPeer> entries_;
};

}  // namespace ares
