#pragma once

/// \file vicinity.h
/// The selective top gossip layer (§5): like CYCLON, but links are kept
/// "according to their attributes". Each node ranks candidate descriptors by
/// how useful they are for its routing table — covering its level-0 cell and
/// each neighboring subcell N(l,k) — and periodically exchanges the entries
/// most useful to its partner. The CYCLON layer underneath continuously
/// feeds random descriptors so the selection escapes local optima (this is
/// the Voulgaris & van Steen two-layer design the paper builds on [9]).
///
/// Views and staging buffers hold 8-byte CompactPeer handles; candidate
/// coordinates are read from the shared DescriptorStore during ranking, and
/// full descriptors are materialized only into outgoing messages.

#include <functional>

#include "common/object_pool.h"
#include "gossip/view.h"
#include "runtime/message.h"
#include "space/cells.h"

namespace ares {

/// Exchange request/reply. Pooled like CyclonShuffleMsg: message block and
/// entries buffer are recycled per thread, so warm exchanges do not touch
/// the heap.
struct VicinityExchangeMsg final : Message, PoolNew<VicinityExchangeMsg> {
  VicinityExchangeMsg() : entries(VecPool<PeerDescriptor>::acquire()) {}
  ~VicinityExchangeMsg() override {
    VecPool<PeerDescriptor>::release(std::move(entries));
  }
  VicinityExchangeMsg(const VicinityExchangeMsg&) = delete;
  VicinityExchangeMsg& operator=(const VicinityExchangeMsg&) = delete;

  bool is_reply = false;
  std::vector<PeerDescriptor> entries;

  const char* type_name() const override {
    return is_reply ? "vicinity.reply" : "vicinity.request";
  }
  wire::Kind kind() const override {
    return is_reply ? wire::Kind::kVicinityReply : wire::Kind::kVicinityRequest;
  }
};

struct VicinityConfig {
  std::size_t view_size = 20;     // K_v
  std::size_t exchange_len = 10;  // descriptors exchanged per gossip
  /// Entries older than this many cycles are dropped. Must comfortably
  /// exceed the exploit-refresh period (~2 * view_size cycles: one exploit
  /// exchange every other tick walks the view oldest-first), otherwise
  /// links to sparsely populated subcells flap: they age out before their
  /// refresh turn comes, and delivery to rare attribute corners suffers.
  /// Dead entries lingering up to max_age are harmless — query timeouts
  /// (§4.3) purge them actively on first contact.
  std::uint32_t max_age = 50;
};

class Vicinity {
 public:
  using SendFn = std::function<void(NodeId to, MessagePtr)>;

  /// \param self id of the hosting node; its profile must already be in
  ///        `store` (SelectionNode::start() registers it first), and its
  ///        row is the layer's only copy of its cell
  /// \param cfg must outlive the layer (one config serves a deployment)
  Vicinity(NodeId self, const Cells& cells, DescriptorStore& store,
           const VicinityConfig& cfg, Rng& rng, SendFn send);
  Vicinity(NodeId, const Cells&, DescriptorStore&, VicinityConfig&&, Rng&,
           SendFn) = delete;

  /// Seeds the view with bootstrap contacts (runs them through the
  /// selection function).
  void seed(const std::vector<PeerDescriptor>& contacts, const View& cyclon_view) {
    merge(contacts, cyclon_view);
  }

  /// One gossip cycle. Partners alternate between the oldest vicinity entry
  /// (exploitation) and a random CYCLON entry (exploration).
  void tick(const View& cyclon_view);

  /// Handles an incoming exchange. Returns true if consumed.
  bool handle(NodeId from, const Message& m, const View& cyclon_view);

  const View& view() const { return view_; }
  void remove(NodeId id) { view_.remove(id); }

  /// The selection function: keeps up to `cap` descriptors maximizing
  /// routing-slot coverage for this node — round-robin over slot groups
  /// (same-C0 first, then N(l,k) by ascending level), youngest first within
  /// a group. Exposed for tests.
  ///
  /// This and subset_for() take time linear in the candidates, plus a sort
  /// of each small group: ids dedupe through a hash index and groups form
  /// by counting sort (vicinity.cpp).
  std::vector<PeerDescriptor> select_best(std::vector<PeerDescriptor> candidates,
                                          std::size_t cap) const;

  /// Entries most useful to `target` (lowest common-cell level first, then
  /// youngest), drawn from our view, the CYCLON view, and ourselves.
  /// Candidates that cannot be classified against the target (coordinates
  /// outside the space) rank after every level.
  std::vector<PeerDescriptor> subset_for(const PeerDescriptor& target,
                                         const View& cyclon_view,
                                         std::size_t k) const;

  /// As subset_for, but keyed by a stored peer and filling `out` (clearing
  /// it first) — the hot path writes straight into a pooled message's
  /// entries buffer. Precondition: store.contains(target).
  void subset_into(NodeId target, const View& cyclon_view, std::size_t k,
                   std::vector<PeerDescriptor>& out) const;

  /// The object plus the entry storage it owns.
  std::size_t memory_bytes() const {
    return sizeof(*this) - sizeof(view_) + view_.memory_bytes();
  }

 private:
  /// Per-thread selection buffers (vicinity.cpp, common/object_pool.h).
  /// Each entry point fetches them once and is done with them before it
  /// calls send_.
  struct Scratch;

  void merge(const std::vector<PeerDescriptor>& received, const View& cyclon_view);

  /// Selection core over the candidates staged in `s` (youngest entry per
  /// id, self and expired entries already dropped); fills `out` (clearing
  /// it first) with the winning handles.
  void select_into(Scratch& s, std::size_t cap, std::vector<CompactPeer>& out) const;

  const Cells& cells_;
  DescriptorStore& store_;
  const VicinityConfig& cfg_;
  Rng& rng_;
  SendFn send_;
  View view_;
  NodeId self_;
  bool explore_next_ = false;
};

}  // namespace ares
