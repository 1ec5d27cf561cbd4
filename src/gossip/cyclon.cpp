#include "gossip/cyclon.h"

#include <algorithm>

namespace ares {

namespace {

/// Per-thread staging for an outgoing subset (common/object_pool.h).
struct Scratch {
  std::vector<CompactPeer> subset;
};

}  // namespace

Cyclon::Cyclon(NodeId self, DescriptorStore& store, const CyclonConfig& cfg,
               Rng& rng, SendFn send)
    : store_(store), cfg_(cfg), rng_(rng), send_(std::move(send)),
      view_(cfg.cache_size), self_(self) {}

void Cyclon::seed(const std::vector<PeerDescriptor>& contacts) {
  for (const auto& c : contacts) {
    if (c.id == self_) continue;
    store_.put_if_absent(c.id, c.values);
    view_.insert_evicting_oldest({c.id, c.age});
  }
}

void Cyclon::tick() {
  if (view_.empty()) return;
  view_.age_all();

  // 1. Remove the oldest neighbor Q from the view; it is the shuffle target.
  CompactPeer target = view_.take_oldest();
  shuffle_partner_ = target.id;

  // 2. Build the subset: self (age 0) plus up to shuffle_len-1 random others.
  auto msg = std::make_unique<CyclonShuffleMsg>();
  msg->is_reply = false;
  std::vector<CompactPeer>& subset = thread_scratch<Scratch>().subset;
  view_.random_subset_into(rng_, cfg_.shuffle_len - 1, subset);
  subset.push_back({self_, 0});
  msg->entries.clear();
  msg->entries.reserve(subset.size());
  for (CompactPeer p : subset) msg->entries.push_back(materialize(store_, p));

  last_sent_.assign(subset.begin(), subset.end());
  send_(target.id, std::move(msg));
  // If the target is dead, the message is dropped and the dead link is
  // already gone from the view — CYCLON's built-in failure handling.
}

bool Cyclon::handle(NodeId from, const Message& m) {
  const auto* shuffle = dynamic_cast<const CyclonShuffleMsg*>(&m);
  if (shuffle == nullptr) return false;

  if (!shuffle->is_reply) {
    // Answer with a random subset of our own view, then merge theirs.
    auto reply = std::make_unique<CyclonShuffleMsg>();
    reply->is_reply = true;
    std::vector<CompactPeer>& sent = thread_scratch<Scratch>().subset;
    view_.random_subset_into(rng_, cfg_.shuffle_len, sent);
    reply->entries.clear();
    reply->entries.reserve(sent.size());
    for (CompactPeer p : sent) reply->entries.push_back(materialize(store_, p));
    // Merge before sending: `sent` is per-thread scratch, which a
    // synchronous runtime's delivery of the reply would reuse.
    merge(from, shuffle->entries, sent);
    send_(from, std::move(reply));
  } else {
    if (from == shuffle_partner_) shuffle_partner_ = kInvalidNode;
    merge(from, shuffle->entries, last_sent_);
    last_sent_.clear();
  }
  return true;
}

void Cyclon::merge(NodeId peer, const std::vector<PeerDescriptor>& received,
                   const std::vector<CompactPeer>& sent) {
  (void)peer;
  // CYCLON merge rule: discard self and duplicates; fill empty slots first,
  // then replace entries that were part of the sent subset, then the oldest.
  for (const auto& d : received) {
    if (d.id == self_) continue;
    store_.put_if_absent(d.id, d.values);
    const CompactPeer c{d.id, d.age};
    if (view_.insert_or_refresh(c)) continue;  // had room / refreshed
    // View full: replace one of the entries we shipped out, if still present.
    bool replaced = false;
    for (const CompactPeer s : sent) {
      if (s.id == c.id) continue;
      if (view_.contains(s.id)) {
        view_.remove(s.id);
        view_.insert_or_refresh(c);
        replaced = true;
        break;
      }
    }
    if (!replaced) view_.insert_evicting_oldest(c);
  }
}

}  // namespace ares
