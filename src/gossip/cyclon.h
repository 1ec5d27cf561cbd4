#pragma once

/// \file cyclon.h
/// The CYCLON shuffle protocol [Voulgaris et al. 2005] — the bottom gossip
/// layer (§5): each node keeps K_c random links and periodically exchanges a
/// few of them with its oldest neighbor, yielding a continuously refreshed
/// random-graph overlay that is highly robust to partitioning. Dead peers
/// wash out because a shuffle target is removed from the view before the
/// exchange and only re-enters through a (live) reply.
///
/// Cyclon is embedded in a host sim::Node (composition): the host forwards
/// matching messages to handle() and drives tick() from its gossip timer.
///
/// The view stores 8-byte CompactPeer handles; full descriptors exist only
/// inside messages. Outgoing entries are materialized from the shared
/// DescriptorStore, incoming descriptors register unknown peers in it
/// (put_if_absent — receive paths never overwrite a profile).

#include <functional>

#include "common/object_pool.h"
#include "gossip/view.h"
#include "runtime/message.h"

namespace ares {

/// Shuffle request/reply carrying a subset of peer descriptors. Pooled:
/// the message block and the entries buffer are both recycled per thread,
/// so a warm shuffle exchange performs no heap allocation.
struct CyclonShuffleMsg final : Message, PoolNew<CyclonShuffleMsg> {
  CyclonShuffleMsg() : entries(VecPool<PeerDescriptor>::acquire()) {}
  ~CyclonShuffleMsg() override { VecPool<PeerDescriptor>::release(std::move(entries)); }
  CyclonShuffleMsg(const CyclonShuffleMsg&) = delete;
  CyclonShuffleMsg& operator=(const CyclonShuffleMsg&) = delete;

  bool is_reply = false;
  std::vector<PeerDescriptor> entries;

  const char* type_name() const override {
    return is_reply ? "cyclon.reply" : "cyclon.request";
  }
  wire::Kind kind() const override {
    return is_reply ? wire::Kind::kCyclonReply : wire::Kind::kCyclonRequest;
  }
};

struct CyclonConfig {
  std::size_t cache_size = 20;   // K_c
  std::size_t shuffle_len = 8;   // descriptors exchanged per shuffle
};

class Cyclon {
 public:
  using SendFn = std::function<void(NodeId to, MessagePtr)>;

  /// \param self id of the hosting node; its profile must already be
  ///        registered in `store` (SelectionNode::start() does this before
  ///        constructing the gossip layers)
  /// \param cfg must outlive the layer (one config serves a deployment)
  Cyclon(NodeId self, DescriptorStore& store, const CyclonConfig& cfg, Rng& rng,
         SendFn send);
  Cyclon(NodeId, DescriptorStore&, CyclonConfig&&, Rng&, SendFn) = delete;

  /// Seeds the view with bootstrap contacts (e.g. the introducer node).
  void seed(const std::vector<PeerDescriptor>& contacts);

  /// Runs one shuffle cycle: age view, pick oldest neighbor, exchange.
  void tick();

  /// Handles an incoming shuffle message. Returns true if it was consumed.
  bool handle(NodeId from, const Message& m);

  const View& view() const { return view_; }

  /// Purges a peer known to be unreachable.
  void remove(NodeId id) { view_.remove(id); }

  /// The object plus the entry storage it owns (view and pending subset).
  std::size_t memory_bytes() const {
    return sizeof(*this) - sizeof(view_) + view_.memory_bytes() +
           last_sent_.capacity() * sizeof(CompactPeer);
  }

 private:
  void merge(NodeId peer, const std::vector<PeerDescriptor>& received,
             const std::vector<CompactPeer>& sent);

  DescriptorStore& store_;
  const CyclonConfig& cfg_;
  Rng& rng_;
  SendFn send_;
  View view_;
  std::vector<CompactPeer> last_sent_;  // subset sent in the ongoing shuffle
  NodeId self_;
  NodeId shuffle_partner_ = kInvalidNode;
};

}  // namespace ares
