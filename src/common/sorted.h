#pragma once

/// \file sorted.h
/// Deterministic-order containers and sorted-extraction helpers.
///
/// The repo's reproducibility contract (fig06 byte-identical across thread
/// counts and wire modes, enforced in CI) forbids hash-order from leaking
/// into protocol decisions or protocol output. Tools/ares_lint.py rejects
/// traversal of std::unordered_* containers in the protocol layers; code
/// that needs an associative container it also iterates uses FlatMap /
/// FlatSet (sorted vectors, iteration in key order), and code that builds
/// with a hash container but publishes results converts through
/// sorted_elements() / sorted_keys() below.
///
/// FlatMap/FlatSet favor the protocol's actual shapes: per-query maps of a
/// handful of outstanding branches, where a sorted vector beats a
/// node-based map on locality and beats a hash map on determinism with no
/// measurable cost at these sizes.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace ares {

/// A map over a sorted vector of (key, value) pairs. Iteration is in
/// ascending key order — always, portably. Insertion is O(n); intended for
/// small, hot, iterated maps (tens of entries), not bulk storage.
template <class K, class V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return entries_.capacity(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  iterator find(const K& k) {
    auto it = lower_bound(k);
    return (it != entries_.end() && it->first == k) ? it : entries_.end();
  }
  const_iterator find(const K& k) const {
    auto it = lower_bound(k);
    return (it != entries_.end() && it->first == k) ? it : entries_.end();
  }
  bool contains(const K& k) const { return find(k) != entries_.end(); }

  /// Inserts (k, v) if `k` is absent (std::map::emplace semantics: an
  /// existing entry is left untouched). Returns {iterator, inserted}.
  std::pair<iterator, bool> emplace(const K& k, V v) {
    auto it = lower_bound(k);
    if (it != entries_.end() && it->first == k) return {it, false};
    it = entries_.insert(it, value_type(k, std::move(v)));
    return {it, true};
  }

  /// Unconditional insert-or-assign.
  V& operator[](const K& k) {
    auto it = lower_bound(k);
    if (it == entries_.end() || it->first != k)
      it = entries_.insert(it, value_type(k, V{}));
    return it->second;
  }

  iterator erase(iterator it) { return entries_.erase(it); }
  std::size_t erase(const K& k) {
    auto it = find(k);
    if (it == entries_.end()) return 0;
    entries_.erase(it);
    return 1;
  }

 private:
  iterator lower_bound(const K& k) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), k,
        [](const value_type& e, const K& key) { return e.first < key; });
  }
  const_iterator lower_bound(const K& k) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), k,
        [](const value_type& e, const K& key) { return e.first < key; });
  }

  std::vector<value_type> entries_;
};

/// A set over a sorted vector. Iteration in ascending order.
template <class K>
class FlatSet {
 public:
  using const_iterator = typename std::vector<K>::const_iterator;

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  bool contains(const K& k) const {
    auto it = std::lower_bound(entries_.begin(), entries_.end(), k);
    return it != entries_.end() && *it == k;
  }

  /// Returns true when `k` was inserted (false: already present).
  bool insert(const K& k) {
    auto it = std::lower_bound(entries_.begin(), entries_.end(), k);
    if (it != entries_.end() && *it == k) return false;
    entries_.insert(it, k);
    return true;
  }

  std::size_t erase(const K& k) {
    auto it = std::lower_bound(entries_.begin(), entries_.end(), k);
    if (it == entries_.end() || *it != k) return 0;
    entries_.erase(it);
    return 1;
  }

 private:
  std::vector<K> entries_;
};

/// Sorted-extraction seam for hash containers: the one sanctioned way to
/// turn an unordered set's elements into an iterable sequence. Build with
/// the hash container (O(1) dedup), publish through here (deterministic
/// order).
template <class Set>
std::vector<typename Set::key_type> sorted_elements(const Set& s) {
  // ares-lint: unordered-iter-ok(order is erased by the sort below; this is
  // the sanctioned extraction helper)
  std::vector<typename Set::key_type> v(s.begin(), s.end());
  std::sort(v.begin(), v.end());
  return v;
}

/// Sorted key extraction for hash maps (values reachable via the map).
template <class Map>
std::vector<typename Map::key_type> sorted_keys(const Map& m) {
  std::vector<typename Map::key_type> v;
  v.reserve(m.size());
  // ares-lint: unordered-iter-ok(order is erased by the sort below; this is
  // the sanctioned extraction helper)
  for (const auto& kv : m) v.push_back(kv.first);
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace ares
