#include "sim/simulator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace ares {

namespace {

/// The shard count arrives from configuration (ARES_SHARDS), so it is
/// checked in every build: shifts by >= 64 in the work mask are undefined.
std::uint32_t checked_shards(std::uint32_t shards) {
  if (shards < 1 || shards > Simulator::kMaxShards)
    throw std::invalid_argument("Simulator: the shard count must lie in [1, 64], got " +
                                std::to_string(shards));
  return shards;
}

[[noreturn]] void coordinator_only_violation() {
  std::fprintf(stderr,
               "ares::Simulator: schedule_at/schedule_after called from node "
               "code inside a window drain — coordinator events are scheduled "
               "between windows only; node code uses Runtime::node_timer() "
               "(DESIGN.md §8)\n");
  std::abort();
}

}  // namespace

Simulator::Simulator(std::uint64_t seed, std::uint32_t shards, SimTime window)
    : rng_(seed),
      seed_(seed),
      shards_(checked_shards(shards)),
      window_(window),
      shard_(shards_) {
  if (window_ <= 0)
    throw std::invalid_argument("Simulator: the lookahead window must be positive");
  if (shards_ > 1) {
    threads_.reserve(shards_);
    for (std::uint32_t s = 0; s < shards_; ++s)
      threads_.emplace_back([this, s] { worker_main(s); });
  }
}

Simulator::~Simulator() {
  if (!threads_.empty()) {
    {
      MutexLock lk(&mu_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }
}

SimTime Simulator::now() const {
  const int cur = current_shard();
  return cur < 0 ? coord_now_ : shard_[static_cast<std::uint32_t>(cur)].now;
}

void Simulator::set_node_shard(NodeId id, std::uint32_t shard) {
  assert(current_shard() < 0 && "membership changes are coordinator-only");
  assert(shard < shards_);
  if (id >= node_shard_.size()) {
    node_shard_.resize(id + 1, 0);
    src_ctr_.resize(id + 1, 0);
  }
  node_shard_[id] = shard;
}

std::uint64_t Simulator::alloc_key(NodeId src) {
  if (src >= src_ctr_.size()) {
    // Drains only allocate keys for their own (registered) nodes; growing
    // the table concurrently would race.
    assert(current_shard() < 0 && "unregistered source inside a drain");
    src_ctr_.resize(src + 1, 0);
  }
  return (static_cast<std::uint64_t>(src) << 32) | src_ctr_[src]++;
}

void Simulator::schedule(NodeId owner, std::uint64_t key, SimTime t,
                         EventQueue::Action a, NodeId guard) {
  const int cur = current_shard();
  const std::uint32_t dst = shard_of(owner);
  if (cur < 0) {
    if (t < coord_now_) {
      ++coord_late_;
      t = coord_now_;
    }
    shard_[dst].queue.push_keyed(t, key, std::move(a), guard);
    return;
  }
  ShardState& me = shard_[static_cast<std::uint32_t>(cur)];
  if (t < me.now) {
    ++me.late;
    t = me.now;
  }
  if (dst == static_cast<std::uint32_t>(cur)) {
    me.queue.push_keyed(t, key, std::move(a), guard);
  } else {
    // The conservative-PDES invariant: every cross-shard hop travels at
    // least Δ, so it lands past the barrier. A latency model whose floor is
    // below the configured window breaks determinism — catch it here.
    assert(t >= window_end_.load(std::memory_order_relaxed) &&
           "cross-shard event inside the lookahead window");
    me.outbox.push_back(Outgoing{dst, t, key, guard, std::move(a)});
  }
}

void Simulator::schedule_at(SimTime t, EventQueue::Action action) {
  // Checked in every build: drain order relies on drains adding no
  // coordinator events (the S=1 merged drain fixes its end up front, so a
  // late-added one would run after later shard events with the clock
  // stepping back).
  if (current_shard() >= 0) coordinator_only_violation();
  if (t < coord_now_) {
    ++coord_late_;
    t = coord_now_;
  }
  // Coordinator keys use the (invalid) source 2^32-1; the coordinator queue
  // never merges with shard queues, so they only need to be unique here.
  coord_queue_.push_keyed(t, (0xFFFFFFFFULL << 32) | coord_ctr_++, std::move(action));
}

void Simulator::schedule_after(SimTime delay, EventQueue::Action action) {
  schedule_at(now() + std::max<SimTime>(delay, 0), std::move(action));
}

void Simulator::schedule_owned_after(SimTime delay, NodeId owner,
                                     EventQueue::Action action) {
  // Owner-guarded events are same-shard (the owner schedules for itself),
  // so they may fire inside the window that set them — no lookahead
  // constraint.
  schedule(owner, alloc_key(owner), now() + std::max<SimTime>(delay, 0),
           std::move(action), owner);
}

SimTime Simulator::next_time() const {
  SimTime t = coord_queue_.empty() ? kNoEvent : coord_queue_.next_time();
  for (const ShardState& st : shard_)
    if (!st.queue.empty()) t = std::min(t, st.queue.next_time());
  return t;
}

std::size_t Simulator::pending_events() const {
  std::size_t n = coord_queue_.size();
  for (const ShardState& st : shard_) n += st.queue.size() + st.outbox.size();
  return n;
}

std::uint64_t Simulator::executed_events() const {
  std::uint64_t n = coord_executed_;
  for (const ShardState& st : shard_) n += st.executed;
  return n;
}

std::uint64_t Simulator::late_events() const {
  std::uint64_t n = coord_late_;
  for (const ShardState& st : shard_) n += st.late;
  return n;
}

bool Simulator::step() { return run_window(kNoEvent, /*merge=*/false) > 0; }

std::uint64_t Simulator::run_until(SimTime t) {
  std::uint64_t n = 0;
  while (std::uint64_t k = run_window(t, /*merge=*/true)) n += k;
  // Advance the clock to the horizon even if no event lands exactly there.
  coord_now_ = std::max(coord_now_, t);
  return n;
}

std::uint64_t Simulator::run() {
  std::uint64_t n = 0;
  while (std::uint64_t k = run_window(kNoEvent, /*merge=*/true)) n += k;
  return n;
}

void Simulator::drain_shard(std::uint32_t s, SimTime end_excl) {
  ShardState& st = shard_[s];
  while (!st.queue.empty() && st.queue.next_time() < end_excl) {
    st.now = st.queue.next_time();
    const NodeId guard = st.queue.next_owner();
    auto action = st.queue.pop();
    ++st.executed;
    // Guarded events are popped and counted either way — drain order and
    // executed_events() stay a pure function of the event set — but a dead
    // owner's action is never invoked.
    if (may_run(guard)) action();
  }
}

void Simulator::worker_main(std::uint32_t s) {
  tls_shard_ = static_cast<int>(s);
  std::uint64_t seen = 0;
  for (;;) {
    SimTime end_excl;
    bool mine;
    {
      MutexLock lk(&mu_);
      while (!stop_ && generation_ == seen) start_cv_.wait(mu_);
      if (stop_) return;
      seen = generation_;
      mine = (work_mask_ >> s) & 1U;
      end_excl = window_end_.load(std::memory_order_relaxed);
    }
    if (mine) drain_shard(s, end_excl);
    {
      MutexLock lk(&mu_);
      if (--active_ == 0) done_cv_.notify_one();
    }
  }
}

std::uint64_t Simulator::run_window(SimTime limit, bool merge) {
  const SimTime tmin = next_time();
  if (tmin == kNoEvent || tmin > limit) return 0;
  const SimTime wstart = tmin - (tmin % window_);
  SimTime wend = wstart + window_;  // exclusive
  if (limit < wend - 1) wend = limit + 1;
  window_end_.store(wend, std::memory_order_relaxed);

  // Phase 1 — coordinator first: experiment-driver events observe node
  // state as of the start of the window, identically for every shard count.
  std::uint64_t n = 0;
  while (!coord_queue_.empty() && coord_queue_.next_time() < wend) {
    coord_now_ = coord_queue_.next_time();
    auto action = coord_queue_.pop();
    ++coord_executed_;
    ++n;
    action();
  }

  // Phase 2 — shard drains.
  std::uint64_t mask = 0;
  std::uint32_t active_count = 0;
  std::uint32_t solo = 0;
  for (std::uint32_t s = 0; s < shards_; ++s) {
    const EventQueue& q = shard_[s].queue;
    if (!q.empty() && q.next_time() < wend) {
      mask |= 1ULL << s;
      solo = s;
      ++active_count;
    }
  }
  const std::uint64_t before = executed_events() - coord_executed_;
  if (active_count == 1) {
    // Solo window: drain inline. This is the only case at S=1 and the
    // common one for query-only runs (a sequential DFS touches one node per
    // window); it skips the pool handshake entirely.
    SimTime end = wend;
    if (merge && shards_ == 1) {
      // At S=1 no event crosses a shard and a drain cannot add coordinator
      // events (schedule_at aborts inside a drain), so every window before
      // the one holding the next coordinator event drains as one run: the
      // same (time, key) order without the per-window cost.
      end = limit == kNoEvent ? kNoEvent : limit + 1;
      if (!coord_queue_.empty()) {
        const SimTime c = coord_queue_.next_time();
        end = std::max(wend, std::min(end, c - c % window_));
      }
    }
    tls_shard_ = static_cast<int>(solo);
    drain_shard(solo, end);
    tls_shard_ = -1;
    if (end != wend) {
      // The clock below tracks the window of the last event drained.
      const SimTime last = shard_[solo].now;
      wend = std::min(last - last % window_ + window_, end);
    }
  } else if (active_count > 1) {
    {
      MutexLock lk(&mu_);
      work_mask_ = mask;
      active_ = static_cast<std::uint32_t>(threads_.size());
      ++generation_;
    }
    start_cv_.notify_all();
    {
      MutexLock lk(&mu_);
      while (active_ != 0) done_cv_.wait(mu_);
    }
  }
  n += (executed_events() - coord_executed_) - before;

  // Phase 3 — barrier merge, source shards in ascending order. The keyed
  // heap makes the merge order immaterial for drain order; the fixed order
  // keeps even transient container state reproducible.
  for (std::uint32_t s = 0; s < shards_; ++s) {
    for (Outgoing& o : shard_[s].outbox)
      shard_[o.dst].queue.push_keyed(o.t, o.key, std::move(o.action), o.guard);
    shard_[s].outbox.clear();
  }

  // The coordinator clock tracks window completion so inter-window driver
  // code (query submission, churn) stamps times at the frontier.
  coord_now_ = std::max(coord_now_, wend - 1);
  return n;
}

}  // namespace ares
