#pragma once

/// \file inline_vec.h
/// Fixed-capacity small-vector with fully inline storage — the backing type
/// for `Point` and `CellCoord` (common/types.h, space/attribute_space.h).
///
/// Why not std::vector: every PeerDescriptor used to carry two heap-backed
/// vectors, so each descriptor copy in the gossip hot path (View snapshots,
/// Vicinity staging, shuffle message entries, wire decode) cost two
/// allocations. The paper's attribute space never exceeds d = 5 dimensions
/// (kMaxDimensions = 8 leaves headroom), so a capacity-8 inline array makes
/// descriptors flat, trivially-copyable-sized values and a steady-state
/// gossip cycle allocation-free (gated by bench/micro_gossip).
///
/// Deliberately minimal: only the std::vector surface the codebase uses
/// (sized/init-list construction, push_back, resize, clear, indexing,
/// iteration, ==). Exceeding the capacity throws std::length_error — the
/// AttributeSpace constructor enforces d <= capacity up front, so overflow
/// here means a logic error, not bad user input.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <stdexcept>
#include <type_traits>

namespace ares {

template <typename T, std::size_t Cap>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "InlineVec is for flat value types (ids, indices, intervals)");
  static_assert(Cap >= 1 && Cap <= 255, "size is stored in a uint8_t");

 public:
  using value_type = T;
  using size_type = std::size_t;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVec() = default;

  explicit InlineVec(size_type n, const T& value = T()) { resize(n, value); }

  InlineVec(std::initializer_list<T> init) {
    for (const T& v : init) push_back(v);
  }

  static constexpr size_type capacity() { return Cap; }
  static constexpr size_type max_size() { return Cap; }

  size_type size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T* data() { return elems_; }
  const T* data() const { return elems_; }

  iterator begin() { return elems_; }
  iterator end() { return elems_ + size_; }
  const_iterator begin() const { return elems_; }
  const_iterator end() const { return elems_ + size_; }
  const_iterator cbegin() const { return elems_; }
  const_iterator cend() const { return elems_ + size_; }

  T& operator[](size_type i) { return elems_[i]; }
  const T& operator[](size_type i) const { return elems_[i]; }

  T& front() { return elems_[0]; }
  const T& front() const { return elems_[0]; }
  T& back() { return elems_[size_ - 1]; }
  const T& back() const { return elems_[size_ - 1]; }

  void clear() { size_ = 0; }

  void push_back(const T& v) {
    if (size_ == Cap) overflow();
    elems_[size_++] = v;
  }

  void pop_back() { --size_; }

  void resize(size_type n, const T& value = T()) {
    if (n > Cap) overflow();
    for (size_type i = size_; i < n; ++i) elems_[i] = value;
    size_ = static_cast<std::uint8_t>(n);
  }

  /// Elementwise over [0, size): the uninitialized tail beyond size() must
  /// never participate (a defaulted == would compare raw storage).
  friend bool operator==(const InlineVec& a, const InlineVec& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator!=(const InlineVec& a, const InlineVec& b) {
    return !(a == b);
  }

  /// Lexicographic, like std::vector (Points are used as ordered map keys).
  friend bool operator<(const InlineVec& a, const InlineVec& b) {
    const size_type n = a.size_ < b.size_ ? a.size_ : b.size_;
    for (size_type i = 0; i < n; ++i) {
      if (a.elems_[i] < b.elems_[i]) return true;
      if (b.elems_[i] < a.elems_[i]) return false;
    }
    return a.size_ < b.size_;
  }

  friend std::ostream& operator<<(std::ostream& os, const InlineVec& v) {
    os << '[';
    for (size_type i = 0; i < v.size_; ++i) {
      if (i) os << ", ";
      os << v.elems_[i];
    }
    return os << ']';
  }

 private:
  [[noreturn]] static void overflow() {
    throw std::length_error("InlineVec: fixed capacity exceeded");
  }

  T elems_[Cap];  // tail beyond size_ is intentionally uninitialized
  std::uint8_t size_ = 0;
};

}  // namespace ares
