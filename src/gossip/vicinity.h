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

/// Sort level for candidates whose coordinates cannot be classified against
/// the ranking target (e.g. a descriptor carrying out-of-range cell indices
/// from a differently-cut space). They rank after every real level — the
/// cell hierarchy never exceeds max_level <= 20, so 1 << 20 is above any
/// classifiable common-cell level.
inline constexpr int kUnrankedLevel = 1 << 20;

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
  ///        `store` (SelectionNode::start() registers it first)
  /// \param self_coord the hosting node's level-0 cell coordinates
  Vicinity(NodeId self, CellCoord self_coord, const Cells& cells,
           DescriptorStore& store, VicinityConfig cfg, Rng& rng, SendFn send);

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
  std::vector<PeerDescriptor> select_best(std::vector<PeerDescriptor> candidates,
                                          std::size_t cap) const;

  /// Entries most useful to `target` (lowest common-cell level first),
  /// drawn from our view, the CYCLON view, and ourselves.
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

  /// Selection core over the candidates staged in `s`; fills `out`
  /// (clearing it first) with the winning handles.
  void select_staged_into(Scratch& s, std::size_t cap,
                          std::vector<CompactPeer>& out) const;

  /// Dedupes the staged candidates by id, keeping the youngest entry (ties:
  /// first staged); drops `exclude` and entries older than max_age.
  void dedupe_staged(Scratch& s, NodeId exclude) const;

  NodeId self_;
  CellCoord self_coord_;
  const Cells& cells_;
  DescriptorStore& store_;
  VicinityConfig cfg_;
  Rng& rng_;
  SendFn send_;
  View view_;
  bool explore_next_ = false;
};

}  // namespace ares
