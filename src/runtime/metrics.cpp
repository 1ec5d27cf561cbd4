#include "runtime/metrics.h"

#include <algorithm>

namespace ares {

Metrics::Counter Metrics::counter(std::string_view name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  auto id = static_cast<Counter>(slots_.size());
  std::vector<std::uint64_t> by_node;
  by_node.reserve(std::max(reserved_nodes_, capacity_nodes_));
  by_node.resize(reserved_nodes_, 0);
  slots_.push_back(Slot{std::string(name), std::move(by_node)});
  index_.emplace(std::string(name), id);
  return id;
}

const Metrics::Slot* Metrics::find(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &slots_[it->second];
}

std::uint64_t Metrics::total(std::string_view name) const {
  const Slot* s = find(name);
  if (s == nullptr) return 0;
  // Summed on read: a shared running total would be a write contention
  // point between shard workers, while per-node rows are single-writer.
  std::uint64_t sum = 0;
  for (std::uint64_t v : s->by_node) sum += v;
  return sum;
}

void Metrics::reserve_nodes(std::size_t n) {
  if (n <= reserved_nodes_) return;
  reserved_nodes_ = n;
  for (auto& s : slots_)
    if (s.by_node.size() < n) s.by_node.resize(n, 0);
}

void Metrics::reserve_capacity(std::size_t n) {
  capacity_nodes_ = std::max(capacity_nodes_, n);
  for (auto& s : slots_) s.by_node.reserve(n);
}

std::size_t Metrics::memory_bytes() const {
  // A name longer than the small-string buffer owns heap storage; each is
  // held twice, by its slot and as its index key (a tree node of three
  // links and a color).
  auto name_bytes = [](const std::string& s) {
    return s.capacity() > 15 ? s.capacity() + 1 : 0;
  };
  std::size_t n = sizeof(*this) + slots_.capacity() * sizeof(Slot);
  for (const Slot& s : slots_)
    n += s.by_node.capacity() * sizeof(std::uint64_t) + name_bytes(s.name);
  for (const auto& [name, c] : index_)
    n += 4 * sizeof(void*) + sizeof(std::pair<const std::string, Counter>) +
         name_bytes(name);
  return n;
}

std::uint64_t Metrics::node_value(NodeId node, std::string_view name) const {
  const Slot* s = find(name);
  if (s == nullptr || node >= s->by_node.size()) return 0;
  return s->by_node[node];
}

std::vector<std::pair<NodeId, std::uint64_t>> Metrics::by_node(
    std::string_view name) const {
  std::vector<std::pair<NodeId, std::uint64_t>> out;
  const Slot* s = find(name);
  if (s == nullptr) return out;
  for (NodeId id = 0; id < s->by_node.size(); ++id)
    if (s->by_node[id] != 0) out.emplace_back(id, s->by_node[id]);
  return out;
}

std::vector<std::string> Metrics::counter_names() const {
  std::vector<std::string> out;
  for (const auto& s : slots_) {
    bool bumped = false;
    for (std::uint64_t v : s.by_node) bumped |= v != 0;
    if (bumped) out.push_back(s.name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Metrics::clear() {
  for (auto& s : slots_) s.by_node.assign(reserved_nodes_, 0);
}

}  // namespace ares
