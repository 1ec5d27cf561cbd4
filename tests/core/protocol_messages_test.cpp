/// Message-level tests of the SelectionNode state machine: crafted QUERY /
/// REPLY / PROGRESS / gossip frames injected through the loopback runtime
/// (zero latency, manual clock — no Simulator/Network pair), exercising
/// paths end-to-end runs rarely hit (duplicate receptions, late replies,
/// keepalive deadline refresh, unknown-query progress, frames whose
/// geometry does not fit the receiving node).

#include <gtest/gtest.h>

#include "core/selection_node.h"
#include "runtime/loopback.h"
#include "space/descriptor_store.h"

namespace ares {
namespace {

class ProtocolMessagesTest : public ::testing::Test {
 protected:
  ProtocolMessagesTest()
      : space(AttributeSpace::uniform(2, 3, 0, 80)), store(space), net(7) {
    cfg.gossip_enabled = false;
  }

  /// Every node references the fixture's one config: a test sets it up
  /// before its first SelectionNode joins and leaves it alone after.
  NodeId add_node(Point values) {
    return net.add_node(std::make_unique<SelectionNode>(
        space, store, std::move(values), cfg, std::vector<PeerDescriptor>{}, Rng(1)));
  }

  SelectionNode& node(NodeId id) { return *net.find_as<SelectionNode>(id); }

  std::uint64_t decode_fails() const { return net.metrics().total("wire.decode_fail"); }

  /// Crafted query message addressed as if `parent` forwarded it.
  std::unique_ptr<QueryMsg> make_query(QueryId qid, NodeId parent, int level,
                                       std::uint32_t dims) {
    auto m = std::make_unique<QueryMsg>();
    m->id = qid;
    m->reply_to = parent;
    m->origin = parent;
    m->query = RangeQuery::any(2);
    m->sigma = kNoSigma;
    m->level = level;
    m->dims_mask = dims;
    return m;
  }

  AttributeSpace space;
  DescriptorStore store;
  ProtocolConfig cfg;  // outlives the runtime that owns the nodes
  LoopbackRuntime net;
};

/// Test double that records everything it receives.
class SinkNode final : public Node {
 public:
  void on_message(NodeId from, const Message& m) override {
    ++received;
    if (const auto* r = dynamic_cast<const ReplyMsg*>(&m)) {
      replies.emplace_back(from, *r);
    } else if (dynamic_cast<const ProgressMsg*>(&m) != nullptr) {
      ++progress_count;
    }
  }
  std::vector<std::pair<NodeId, ReplyMsg>> replies;
  int progress_count = 0;
  int received = 0;
};

/// Test double that answers every query with a scripted, complete reply.
class ScriptedChild final : public Node {
 public:
  void on_message(NodeId from, const Message& m) override {
    const auto* q = dynamic_cast<const QueryMsg*>(&m);
    if (q == nullptr) return;
    auto r = std::make_unique<ReplyMsg>();
    r->id = q->id;
    r->matching = records;
    r->complete = true;
    send(from, std::move(r));
  }
  std::vector<MatchRecord> records;
};

TEST_F(ProtocolMessagesTest, LeafProbeAnswersWithSelfOnly) {
  NodeId parent = net.add_node(std::make_unique<SinkNode>());
  NodeId leaf = add_node({5, 5});
  net.send(parent, leaf, make_query(77, parent, /*level=*/-1, 0));
  net.run_until(net.now() + 600 * kSecond);
  auto& sink = *net.find_as<SinkNode>(parent);
  ASSERT_EQ(sink.replies.size(), 1u);
  EXPECT_EQ(sink.replies[0].second.id, 77u);
  ASSERT_EQ(sink.replies[0].second.matching.size(), 1u);
  EXPECT_EQ(sink.replies[0].second.matching[0].id, leaf);
}

TEST_F(ProtocolMessagesTest, LeafProbeNonMatchingAnswersEmpty) {
  NodeId parent = net.add_node(std::make_unique<SinkNode>());
  NodeId leaf = add_node({5, 5});
  auto q = make_query(78, parent, -1, 0);
  q->query = RangeQuery::any(2).with(0, 50, std::nullopt);  // leaf at 5: no
  net.send(parent, leaf, std::move(q));
  net.run_until(net.now() + 600 * kSecond);
  auto& sink = *net.find_as<SinkNode>(parent);
  ASSERT_EQ(sink.replies.size(), 1u);
  EXPECT_TRUE(sink.replies[0].second.matching.empty());
}

TEST_F(ProtocolMessagesTest, DuplicateQueryAnsweredIdempotently) {
  NodeId parent = net.add_node(std::make_unique<SinkNode>());
  NodeId leaf = add_node({5, 5});
  net.send(parent, leaf, make_query(80, parent, -1, 0));
  net.run_until(net.now() + 600 * kSecond);
  net.send(parent, leaf, make_query(80, parent, -1, 0));  // retransmission
  net.run_until(net.now() + 600 * kSecond);
  auto& sink = *net.find_as<SinkNode>(parent);
  ASSERT_EQ(sink.replies.size(), 2u);
  // The duplicate answer must not re-add the leaf (empty reply).
  EXPECT_TRUE(sink.replies[1].second.matching.empty());
  EXPECT_EQ(node(leaf).active_queries(), 0u);
}

TEST_F(ProtocolMessagesTest, UnknownReplyIgnored) {
  NodeId a = add_node({5, 5});
  auto r = std::make_unique<ReplyMsg>();
  r->id = 999;  // never seen
  r->matching.push_back({kInvalidNode, {1, 2}});
  net.send(a, a, std::move(r));
  net.run_until(net.now() + 600 * kSecond);
  EXPECT_EQ(node(a).active_queries(), 0u);  // no state created
}

TEST_F(ProtocolMessagesTest, UnknownProgressIgnored) {
  NodeId a = add_node({5, 5});
  auto p = std::make_unique<ProgressMsg>();
  p->id = 31337;
  net.send(a, a, std::move(p));
  net.run_until(net.now() + 600 * kSecond);
  EXPECT_EQ(node(a).active_queries(), 0u);
}

TEST_F(ProtocolMessagesTest, KeepalivesFlowWhileBranchActive) {
  // Parent forwards to child; child has a stuck sub-branch (link to a dead
  // node), so it stays active and must heartbeat the parent.
  cfg.query_timeout = 4 * kSecond;
  cfg.retry_alternates = false;
  NodeId parent_sink = net.add_node(std::make_unique<SinkNode>());
  NodeId child = add_node({5, 5});
  NodeId dead = add_node({75, 75});  // gives child a slot link, then dies
  node(child).routing().offer(node(dead).descriptor());
  net.remove_node(dead, false);

  // Query covering the whole space: child matches, then forwards toward the
  // dead node's subcell and waits.
  net.send(parent_sink, child, make_query(81, parent_sink, 3, 0b11));
  net.run_until(3 * kSecond);
  auto& sink = *net.find_as<SinkNode>(parent_sink);
  EXPECT_GE(sink.progress_count, 1);  // heartbeats arrived before any reply
  EXPECT_TRUE(sink.replies.empty());
  // After the child's timeout fires, the branch resolves and a reply lands.
  net.run_until(20 * kSecond);
  EXPECT_EQ(sink.replies.size(), 1u);
}

TEST_F(ProtocolMessagesTest, ProgressRefreshesParentDeadline) {
  // A (origin) forwards to B; B's subtree takes ~3 timeouts' worth of time
  // because of its own dead link chain, but A must NOT declare B failed.
  cfg.query_timeout = 3 * kSecond;
  cfg.retry_alternates = false;

  NodeId a = add_node({5, 5});
  NodeId b = add_node({75, 5});        // in N(3,0)(a)
  NodeId dead1 = add_node({45, 5});    // in N(2,0)(b)
  NodeId dead2 = add_node({75, 75});   // in N(3,1)(b)
  // a links b; b links two dead nodes in different subcells.
  node(a).routing().offer(node(b).descriptor());
  node(b).routing().offer(node(dead1).descriptor());
  node(b).routing().offer(node(dead2).descriptor());
  net.remove_node(dead1, false);
  net.remove_node(dead2, false);

  bool completed = false;
  std::size_t matches = 0;
  node(a).submit(RangeQuery::any(2), kNoSigma,
                 [&](const std::vector<MatchRecord>& m) {
                   completed = true;
                   matches = m.size();
                 });
  net.run_until(60 * kSecond);
  EXPECT_TRUE(completed);
  // Both a and b must be in the result: had A falsely timed B out, B's
  // subtree (including B itself) would have been dropped.
  EXPECT_EQ(matches, 2u);
}

TEST_F(ProtocolMessagesTest, SigmaZeroForbidden) {
  [[maybe_unused]] NodeId a = add_node({5, 5});
#ifdef NDEBUG
  GTEST_SKIP() << "assertion checks compiled out in release";
#else
  EXPECT_DEATH(node(a).submit(RangeQuery::any(2), 0, nullptr), "sigma");
#endif
}

TEST_F(ProtocolMessagesTest, QueryStateCleanedAfterCompletion) {
  NodeId a = add_node({5, 5});
  NodeId b = add_node({75, 5});
  node(a).routing().offer(node(b).descriptor());
  node(b).routing().offer(node(a).descriptor());
  bool done = false;
  node(a).submit(RangeQuery::any(2), kNoSigma, [&](const auto&) { done = true; });
  net.run_until(net.now() + 600 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_EQ(node(a).active_queries(), 0u);
  EXPECT_EQ(node(b).active_queries(), 0u);
}

TEST_F(ProtocolMessagesTest, ChildReplyRepeatingHeldIdKeepsFirstRecord) {
  NodeId a = add_node({5, 5});
  NodeId child = net.add_node(std::make_unique<ScriptedChild>());
  // The child's reply repeats a's id with other values.
  net.find_as<ScriptedChild>(child)->records = {{a, {6, 6}}, {child, {75, 5}}};
  node(a).routing().offer(PeerDescriptor{child, {75, 5}});  // N(3,0)(a)
  std::vector<MatchRecord> result;
  bool done = false;
  auto on_done = [&](const std::vector<MatchRecord>& m) {
    result = m;
    done = true;
  };
  node(a).submit(RangeQuery::any(2), kNoSigma, on_done);
  net.run_until(net.now() + 600 * kSecond);
  ASSERT_TRUE(done);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, a);
  EXPECT_EQ(result[0].values, (Point{5, 5}));
  EXPECT_EQ(result[1].id, child);
  EXPECT_EQ(result[1].values, (Point{75, 5}));
}

// ---- ingress: frames whose geometry does not fit the node ---------------
//
// Each frame below decodes cleanly (loopback moves every one through the
// codec), yet would make a handler index past its arrays or grow the
// descriptor store. The node must drop it before any handler runs, meter it
// as wire.decode_fail, and keep no state.

TEST_F(ProtocolMessagesTest, QueryOfOtherDimensionalityDropped) {
  NodeId parent = net.add_node(std::make_unique<SinkNode>());
  NodeId leaf = add_node({5, 5});
  QueryId qid = 100;
  for (int dims : {1, 3, 17}) {
    auto q = make_query(qid++, parent, 3, all_dims_mask(dims));
    q->query = RangeQuery::any(dims);
    net.send(parent, leaf, std::move(q));
  }
  net.run_until(net.now() + 600 * kSecond);
  EXPECT_EQ(decode_fails(), 3u);
  EXPECT_EQ(net.find_as<SinkNode>(parent)->received, 0);
  EXPECT_EQ(node(leaf).active_queries(), 0u);
}

TEST_F(ProtocolMessagesTest, QueryLevelOutsideSpaceDropped) {
  NodeId parent = net.add_node(std::make_unique<SinkNode>());
  NodeId leaf = add_node({5, 5});
  ASSERT_EQ(space.max_level(), 3);
  QueryId qid = 110;
  for (int level : {-2, 4, 200, 254})
    net.send(parent, leaf, make_query(qid++, parent, level, 0b11));
  net.run_until(net.now() + 600 * kSecond);
  EXPECT_EQ(decode_fails(), 4u);
  EXPECT_EQ(net.find_as<SinkNode>(parent)->received, 0);
  EXPECT_EQ(node(leaf).active_queries(), 0u);
  // The bounds themselves are legal: a leaf probe and a fresh query.
  net.send(parent, leaf, make_query(qid++, parent, -1, 0));
  net.send(parent, leaf, make_query(qid++, parent, 3, 0b11));
  net.run_until(net.now() + 600 * kSecond);
  EXPECT_EQ(decode_fails(), 4u);
  EXPECT_EQ(net.find_as<SinkNode>(parent)->replies.size(), 2u);
}

TEST_F(ProtocolMessagesTest, MalformedReplyRecordsDropped) {
  NodeId a = add_node({5, 5});
  NodeId child = net.add_node(std::make_unique<SinkNode>());  // never answers
  node(a).routing().offer(PeerDescriptor{child, {75, 5}});
  std::vector<MatchRecord> result;
  bool done = false;
  auto on_done = [&](const std::vector<MatchRecord>& m) {
    result = m;
    done = true;
  };
  const QueryId qid = node(a).submit(RangeQuery::any(2), kNoSigma, on_done);
  net.run_until(net.now() + 600 * kSecond);
  ASSERT_EQ(node(a).active_queries(), 1u);  // waiting on the child

  const std::vector<std::vector<MatchRecord>> bad = {
      {{child, {75, 5, 1}}},                     // 3-dimensional record
      {{child, {75}}},                           // 1-dimensional record
      {{child, {75, 5}}, {child, {75, 5}}},      // repeated id
      {{child + 1, {75, 5}}, {child, {75, 5}}},  // descending ids
  };
  for (const auto& records : bad) {
    auto r = std::make_unique<ReplyMsg>();
    r->id = qid;
    r->matching = records;
    r->complete = true;
    net.send(child, a, std::move(r));
  }
  net.run_until(net.now() + 600 * kSecond);
  EXPECT_EQ(decode_fails(), bad.size());
  EXPECT_FALSE(done);
  EXPECT_EQ(node(a).active_queries(), 1u);

  // The query is still waiting on its child: a well-formed reply ends it,
  // and nothing from the dropped frames reached the result.
  auto good = std::make_unique<ReplyMsg>();
  good->id = qid;
  good->matching = {{child, {75, 5}}};
  good->complete = true;
  net.send(child, a, std::move(good));
  net.run_until(net.now() + 600 * kSecond);
  ASSERT_TRUE(done);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[1].id, child);
  EXPECT_EQ(result[1].values, (Point{75, 5}));
  EXPECT_EQ(decode_fails(), bad.size());
}

TEST_F(ProtocolMessagesTest, GossipDescriptorsThatWouldCorruptTheStoreDropped) {
  NodeId peer = net.add_node(std::make_unique<SinkNode>());
  NodeId a = add_node({5, 5});
  const std::size_t rows = store.size();
  const std::size_t bytes = store.memory_bytes();
  const std::vector<PeerDescriptor> bad = {
      {kInvalidNode, {15, 15}, 0},  // id + 1 wraps the dense store
      {500, {15, 15, 15}, 0},       // 3 values on a 2-d space
      {501, {15}, 0},               // 1 value on a 2-d space
      {1'000'000, {15, 15}, 0},     // past every row: store would grow
  };
  for (const PeerDescriptor& d : bad) {
    auto c = std::make_unique<CyclonShuffleMsg>();
    c->entries.push_back(PeerDescriptor{peer, {45, 45}});
    c->entries.push_back(d);
    net.send(peer, a, std::move(c));
    auto v = std::make_unique<VicinityExchangeMsg>();
    v->entries.push_back(PeerDescriptor{peer, {45, 45}});
    v->entries.push_back(d);
    net.send(peer, a, std::move(v));
  }
  net.run_until(net.now() + 600 * kSecond);
  EXPECT_EQ(decode_fails(), 2 * bad.size());
  EXPECT_EQ(net.find_as<SinkNode>(peer)->received, 0);  // nothing answered
  EXPECT_EQ(node(a).cyclon().view().size(), 0u);
  EXPECT_EQ(node(a).vicinity().view().size(), 0u);
  EXPECT_FALSE(store.contains(500));
  EXPECT_FALSE(store.contains(501));
  EXPECT_FALSE(store.contains(peer));
  EXPECT_EQ(store.size(), rows);
  EXPECT_EQ(store.memory_bytes(), bytes);

  // The same exchange without the bad entry is absorbed and answered.
  auto c = std::make_unique<CyclonShuffleMsg>();
  c->entries.push_back(PeerDescriptor{peer, {45, 45}});
  net.send(peer, a, std::move(c));
  net.run_until(net.now() + 600 * kSecond);
  EXPECT_EQ(decode_fails(), 2 * bad.size());
  EXPECT_EQ(net.find_as<SinkNode>(peer)->received, 1);
  EXPECT_TRUE(node(a).cyclon().view().contains(peer));
}

}  // namespace
}  // namespace ares
