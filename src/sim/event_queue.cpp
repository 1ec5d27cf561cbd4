#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ares {

void EventQueue::push_keyed(SimTime t, std::uint64_t seq, Action action,
                            NodeId owner) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(action);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(action));
  }
  heap_.push_back(Key{t, seq, slot, owner});
  std::push_heap(heap_.begin(), heap_.end());
}

EventQueue::Action EventQueue::pop() {
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end());
  const Key k = heap_.back();
  heap_.pop_back();
  Action a = std::move(slots_[k.slot]);  // leaves the slot empty
  free_.push_back(k.slot);
  return a;
}

}  // namespace ares
