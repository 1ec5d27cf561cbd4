#include "runtime/metrics.h"

#include <algorithm>

namespace ares {

Metrics::Counter Metrics::counter(std::string_view name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  auto id = static_cast<Counter>(slots_.size());
  slots_.push_back(Slot{std::string(name),
                        std::vector<std::uint64_t>(reserved_nodes_, 0)});
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
