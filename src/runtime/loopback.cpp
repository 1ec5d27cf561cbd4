#include "runtime/loopback.h"

#include <algorithm>
#include <cassert>

#include "runtime/wire.h"

namespace ares {

LoopbackRuntime::LoopbackRuntime(std::uint64_t seed) : rng_(seed) {}

LoopbackRuntime::~LoopbackRuntime() = default;

NodeId LoopbackRuntime::add_node(std::unique_ptr<Node> node) {
  assert(node != nullptr && !node->attached());
  NodeId id = next_id_++;
  bind(*node, *this, id);
  Node* raw = node.get();
  nodes_.emplace(id, std::move(node));
  raw->start();
  return id;
}

void LoopbackRuntime::remove_node(NodeId id, bool graceful) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  if (graceful) it->second->stop();
  unbind(*it->second);
  nodes_.erase(it);
}

Node* LoopbackRuntime::find(NodeId id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

void LoopbackRuntime::send(NodeId from, NodeId to, MessagePtr m) {
  assert(m != nullptr);
  if (std::size_t saved = wire::paper_layout_savings(*m); saved > 0)
    metrics().inc(from, "wire.bytes_delta_saved", saved);
  std::vector<std::uint8_t> frame = wire::encode(*m);
  if (frame.empty()) {
    metrics().inc(from, "wire.encode_fail");
    ++dropped_;
    return;
  }
  inbox_.push_back(Envelope{from, to, std::move(frame)});
}

void LoopbackRuntime::node_timer(NodeId id, SimTime delay, UniqueAction fn) {
  timers_.push(Timer{now_ + std::max<SimTime>(delay, 0), timer_seq_++, id,
                     std::move(fn)});
}

void LoopbackRuntime::deliver_pending() {
  while (!inbox_.empty()) {
    Envelope e = std::move(inbox_.front());
    inbox_.pop_front();
    Node* dst = find(e.to);
    if (dst == nullptr) {
      ++dropped_;
      continue;
    }
    MessagePtr m = wire::decode(e.frame);
    if (m == nullptr) {
      metrics().inc(e.to, "wire.decode_fail");
      ++dropped_;
      continue;
    }
    ++delivered_;
    dst->on_message(e.from, *m);
  }
}

void LoopbackRuntime::run_until(SimTime t) {
  deliver_pending();
  while (!timers_.empty() && timers_.top().at <= t) {
    // priority_queue::top() is const; the handle must be moved out before
    // pop, hence the const_cast (the element is removed immediately after).
    Timer timer = std::move(const_cast<Timer&>(timers_.top()));
    timers_.pop();
    now_ = std::max(now_, timer.at);
    if (alive(timer.owner)) timer.fn();
    deliver_pending();
  }
  now_ = std::max(now_, t);
}

}  // namespace ares
