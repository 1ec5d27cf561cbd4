#include "gossip/vicinity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "runtime/loopback.h"
#include "space/descriptor_store.h"

namespace ares {
namespace {

class VicinityUnit : public ::testing::Test {
 protected:
  VicinityUnit()
      : space(AttributeSpace::uniform(2, 3, 0, 80)), cells(space), store(space),
        rng(1) {}

  PeerDescriptor make(NodeId id, AttrValue x, AttrValue y, std::uint32_t age = 0) {
    return PeerDescriptor{id, {x, y}, age};
  }

  /// Registers a descriptor in the store and returns its compact handle
  /// (view entries are handles; coordinates resolve through the store).
  CompactPeer put(const PeerDescriptor& d) {
    store.put(d.id, d.values);
    return CompactPeer{d.id, d.age};
  }

  Vicinity make_vicinity(const PeerDescriptor& self) {
    store.put(self.id, self.values);
    return Vicinity(self.id, cells, store, cfg, rng, [this](NodeId to, MessagePtr m) {
      outbox.emplace_back(to, std::move(m));
    });
  }

  AttributeSpace space;
  Cells cells;
  DescriptorStore store;
  const VicinityConfig cfg{};  // every layer in a test shares it
  Rng rng;
  std::vector<std::pair<NodeId, MessagePtr>> outbox;
};

TEST_F(VicinityUnit, SelectBestDropsSelfAndExpired) {
  auto v = make_vicinity(make(1, 5, 5));
  auto kept = v.select_best({make(1, 5, 5), make(2, 6, 6), make(3, 7, 7, 99)}, 10);
  std::set<NodeId> ids;
  for (const auto& d : kept) ids.insert(d.id);
  EXPECT_FALSE(ids.contains(1));  // self
  EXPECT_FALSE(ids.contains(3));  // over max_age
  EXPECT_TRUE(ids.contains(2));
}

TEST_F(VicinityUnit, SelectBestDedupesKeepingYoungest) {
  auto v = make_vicinity(make(1, 5, 5));
  auto kept = v.select_best({make(2, 6, 6, 7), make(2, 6, 6, 1)}, 10);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].age, 1u);
}

TEST_F(VicinityUnit, SelectBestPrefersSlotCoverageOverCrowding) {
  // Self at cell (0,0). Candidates: many level-0 cohabitants plus a single
  // far node. Coverage round-robin must keep the far node even with a tight
  // capacity.
  auto v = make_vicinity(make(1, 5, 5));
  std::vector<PeerDescriptor> cands;
  for (NodeId i = 2; i < 10; ++i) cands.push_back(make(i, 6, 6));  // same C0
  cands.push_back(make(50, 75, 75));  // opposite corner: N(3,0)
  auto kept = v.select_best(cands, 4);
  bool has_far = false;
  for (const auto& d : kept) has_far = has_far || d.id == 50;
  EXPECT_TRUE(has_far);
}

TEST_F(VicinityUnit, SelectBestHonorsCapacity) {
  auto v = make_vicinity(make(1, 5, 5));
  std::vector<PeerDescriptor> cands;
  for (NodeId i = 2; i < 30; ++i) cands.push_back(make(i, (i * 7) % 80, (i * 3) % 80));
  EXPECT_LE(v.select_best(cands, 6).size(), 6u);
}

TEST_F(VicinityUnit, SubsetForRanksByUsefulnessToTarget) {
  auto v = make_vicinity(make(1, 5, 5));
  View cyclon_view(8);
  // Target lives at the opposite corner; candidate 30 co-habits the target's
  // level-0 cell, candidate 31 is far from it.
  cyclon_view.insert_or_refresh(put(make(30, 78, 78)));
  cyclon_view.insert_or_refresh(put(make(31, 2, 2)));
  auto subset = v.subset_for(make(99, 76, 77), cyclon_view, 2);
  ASSERT_FALSE(subset.empty());
  EXPECT_EQ(subset[0].id, 30u);
}

TEST_F(VicinityUnit, SubsetForRanksUnclassifiableCandidatesLast) {
  // A descriptor minted against a differently-cut space carries values
  // beyond this space's range. It must sort after every classifiable
  // candidate rather than being dropped or misordered. (The store derives
  // its cell from the values, so here the rogue lands in the far corner
  // cell; SelectionMatchesSortBasedReference below covers stored
  // coordinates outside the space.)
  auto v = make_vicinity(make(1, 5, 5));
  PeerDescriptor rogue;
  rogue.id = 77;
  rogue.values = Point{500, 500};
  View cyclon_view(8);
  cyclon_view.insert_or_refresh(put(make(30, 6, 6)));
  cyclon_view.insert_or_refresh(put(rogue));
  auto subset = v.subset_for(make(99, 5, 6), cyclon_view, 3);
  ASSERT_EQ(subset.size(), 3u);  // self + classifiable + unclassifiable
  EXPECT_EQ(subset.back().id, 77u);
}

TEST_F(VicinityUnit, SubsetForAdvertisesSelf) {
  auto v = make_vicinity(make(1, 5, 5));
  View cyclon_view(8);
  auto subset = v.subset_for(make(99, 5, 6), cyclon_view, 5);
  bool has_self = false;
  for (const auto& d : subset) has_self = has_self || d.id == 1;
  EXPECT_TRUE(has_self);
}

TEST_F(VicinityUnit, SubsetForExcludesTarget) {
  auto v = make_vicinity(make(1, 5, 5));
  View cyclon_view(8);
  cyclon_view.insert_or_refresh(put(make(99, 70, 70)));
  auto subset = v.subset_for(make(99, 70, 70), cyclon_view, 5);
  for (const auto& d : subset) EXPECT_NE(d.id, 99u);
}

TEST_F(VicinityUnit, HandleRequestProducesReply) {
  auto v = make_vicinity(make(1, 5, 5));
  View cyclon_view(8);
  VicinityExchangeMsg req;
  req.is_reply = false;
  req.entries = {make(7, 40, 40), make(8, 10, 70)};
  EXPECT_TRUE(v.handle(7, req, cyclon_view));
  ASSERT_EQ(outbox.size(), 1u);
  EXPECT_EQ(outbox[0].first, 7u);
  const auto* reply = dynamic_cast<const VicinityExchangeMsg*>(outbox[0].second.get());
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->is_reply);
  // Request entries merged into the view.
  EXPECT_TRUE(v.view().contains(8));
}

TEST_F(VicinityUnit, HandleReplyMergesWithoutResponding) {
  auto v = make_vicinity(make(1, 5, 5));
  View cyclon_view(8);
  VicinityExchangeMsg reply;
  reply.is_reply = true;
  reply.entries = {make(9, 33, 44)};
  EXPECT_TRUE(v.handle(9, reply, cyclon_view));
  EXPECT_TRUE(outbox.empty());
  EXPECT_TRUE(v.view().contains(9));
}

TEST_F(VicinityUnit, TickWithEmptyViewsIsNoop) {
  auto v = make_vicinity(make(1, 5, 5));
  View cyclon_view(8);
  v.tick(cyclon_view);
  EXPECT_TRUE(outbox.empty());
}

TEST_F(VicinityUnit, TickUsesCyclonForExploration) {
  auto v = make_vicinity(make(1, 5, 5));
  View cyclon_view(8);
  cyclon_view.insert_or_refresh(put(make(42, 60, 60)));
  v.tick(cyclon_view);  // empty vicinity view: must fall back to cyclon
  ASSERT_EQ(outbox.size(), 1u);
  EXPECT_EQ(outbox[0].first, 42u);
}

/// Minimal runtime node hosting only the Vicinity layer (empty CYCLON
/// underlay: exchanges are driven purely by the vicinity view itself).
class VicinityHost final : public Node {
 public:
  VicinityHost(const Cells& cells, DescriptorStore& store, const VicinityConfig& cfg,
               Point values, Rng rng, std::vector<PeerDescriptor> bootstrap)
      : cells_(cells),
        store_(store),
        cfg_(cfg),
        values_(std::move(values)),
        rng_(rng),
        bootstrap_(std::move(bootstrap)),
        cyclon_view_(8) {}

  void start() override {
    store_.put(id(), values_);
    vicinity_ = std::make_unique<Vicinity>(
        id(), cells_, store_, cfg_, rng_,
        [this](NodeId to, MessagePtr m) { send(to, std::move(m)); });
    vicinity_->seed(bootstrap_, cyclon_view_);
    after(static_cast<SimTime>(rng_.below(10 * kSecond)), [this] { tick(); });
  }

  void on_message(NodeId from, const Message& m) override {
    vicinity_->handle(from, m, cyclon_view_);
  }

  const Vicinity& vicinity() const { return *vicinity_; }

 private:
  void tick() {
    vicinity_->tick(cyclon_view_);
    after(10 * kSecond, [this] { tick(); });
  }

  const Cells& cells_;
  DescriptorStore& store_;
  const VicinityConfig& cfg_;
  Point values_;
  Rng rng_;
  std::vector<PeerDescriptor> bootstrap_;
  View cyclon_view_;
  std::unique_ptr<Vicinity> vicinity_;
};

/// The selective layer end-to-end on the loopback runtime: descriptors must
/// propagate transitively (A learns C through B) without any Simulator.
TEST_F(VicinityUnit, LoopbackExchangePropagatesDescriptorsTransitively) {
  LoopbackRuntime rt(7);
  Rng seeder(3);
  // C knows nobody; B bootstraps knowing C; A bootstraps knowing B.
  NodeId c = rt.add_node(std::make_unique<VicinityHost>(
      cells, store, cfg, Point{40, 40}, seeder.fork(), std::vector<PeerDescriptor>{}));
  NodeId b = rt.add_node(std::make_unique<VicinityHost>(
      cells, store, cfg, Point{75, 75}, seeder.fork(),
      std::vector<PeerDescriptor>{PeerDescriptor{c, {40, 40}}}));
  NodeId a = rt.add_node(std::make_unique<VicinityHost>(
      cells, store, cfg, Point{5, 5}, seeder.fork(),
      std::vector<PeerDescriptor>{PeerDescriptor{b, {75, 75}}}));

  rt.run_until(300 * kSecond);  // ~30 gossip cycles

  const auto& av = rt.find_as<VicinityHost>(a)->vicinity().view();
  EXPECT_TRUE(av.contains(b));
  EXPECT_TRUE(av.contains(c)) << "A never learned C through B";
  // Gossip is symmetric: B must have learned A from A's own requests.
  EXPECT_TRUE(rt.find_as<VicinityHost>(b)->vicinity().view().contains(a));
}

TEST_F(VicinityUnit, IgnoresForeignMessages) {
  auto v = make_vicinity(make(1, 5, 5));
  View cyclon_view(8);
  struct Other final : Message {
    const char* type_name() const override { return "other"; }
    wire::Kind kind() const override { return wire::Kind::kTestBase; }
  } other;
  EXPECT_FALSE(v.handle(2, other, cyclon_view));
}

/// The sort-based selection Vicinity ran before its linear-time rewrite,
/// kept as the reference order: dedupe by a stable sort on (id, age), then
/// rank by a sort on (level, dim, age, id).
struct ReferenceSelection {
  struct Ranked {
    int level = 0;
    int dim = 0;
    CompactPeer p;
  };

  static bool rank_less(const Ranked& a, const Ranked& b) {
    return std::tie(a.level, a.dim, a.p.age, a.p.id) <
           std::tie(b.level, b.dim, b.p.age, b.p.id);
  }

  std::vector<CompactPeer> dedupe(std::vector<CompactPeer> staged, NodeId exclude) const {
    std::erase_if(staged, [&](CompactPeer p) {
      return p.id == exclude || p.age > max_age;
    });
    std::stable_sort(staged.begin(), staged.end(), [](CompactPeer a, CompactPeer b) {
      return a.id != b.id ? a.id < b.id : a.age < b.age;
    });
    auto same_id = [](CompactPeer a, CompactPeer b) { return a.id == b.id; };
    staged.erase(std::unique(staged.begin(), staged.end(), same_id), staged.end());
    return staged;
  }

  std::vector<CompactPeer> select_best(const std::vector<PeerDescriptor>& candidates,
                                       std::size_t cap) const {
    std::vector<CompactPeer> staged;
    for (const auto& c : candidates) staged.push_back({c.id, c.age});
    std::vector<Ranked> ranked;
    for (const CompactPeer p : dedupe(std::move(staged), self)) {
      auto slot = cells.classify(self_coord.data(), store.coord_ptr(p.id));
      if (slot) ranked.push_back({slot->level, slot->dim, p});
    }
    std::sort(ranked.begin(), ranked.end(), rank_less);
    std::vector<std::pair<std::size_t, std::size_t>> groups;
    for (std::size_t i = 0; i < ranked.size();) {
      std::size_t j = i + 1;
      while (j < ranked.size() && ranked[j].level == ranked[i].level &&
             ranked[j].dim == ranked[i].dim)
        ++j;
      groups.emplace_back(i, j);
      i = j;
    }
    std::vector<CompactPeer> out;
    for (std::size_t round = 0; out.size() < cap; ++round) {
      bool any = false;
      for (const auto& [begin, end] : groups) {
        if (begin + round < end && out.size() < cap) {
          out.push_back(ranked[begin + round].p);
          any = true;
        }
      }
      if (!any) break;
    }
    return out;
  }

  std::vector<CompactPeer> subset_for(NodeId target, const View& vicinity_view,
                                      const View& cyclon_view, std::size_t k) const {
    std::vector<CompactPeer> staged{{self, 0}};
    for (const CompactPeer p : vicinity_view.entries()) staged.push_back(p);
    for (const CompactPeer p : cyclon_view.entries()) staged.push_back(p);
    std::vector<Ranked> ranked;
    for (const CompactPeer p : dedupe(std::move(staged), target)) {
      auto slot = cells.classify(store.coord_ptr(target), store.coord_ptr(p.id));
      ranked.push_back({slot ? slot->level : std::numeric_limits<int>::max(), 0, p});
    }
    std::sort(ranked.begin(), ranked.end(), rank_less);
    const bool truncated = ranked.size() > k;
    if (truncated) ranked.resize(k);
    std::vector<CompactPeer> out;
    for (const Ranked& r : ranked) out.push_back(r.p);
    bool has_self = false;
    for (const CompactPeer p : out) has_self = has_self || p.id == self;
    if (truncated && !has_self && !out.empty()) out.back() = {self, 0};
    return out;
  }

  const Cells& cells;
  const DescriptorStore& store;
  NodeId self;
  CellCoord self_coord;
  std::uint32_t max_age;
};

/// (id, age) pairs: CompactPeer's operator== compares ids only.
using IdAges = std::vector<std::pair<NodeId, std::uint32_t>>;

IdAges id_ages(const std::vector<PeerDescriptor>& ds) {
  IdAges out;
  for (const auto& d : ds) out.emplace_back(d.id, d.age);
  return out;
}

IdAges id_ages(const std::vector<CompactPeer>& ps) {
  IdAges out;
  for (const CompactPeer p : ps) out.emplace_back(p.id, p.age);
  return out;
}

/// Entry for entry (id and age), the linear-time selection must reproduce
/// the sort-based one: on thousands of random candidate sets with duplicate
/// ids at different ages, self and the target among the candidates, ages
/// past max_age, stored coordinates outside the space, and every cap or k
/// from 0 to past the candidate count.
TEST(VicinitySelectionOrder, SelectionMatchesSortBasedReference) {
  constexpr NodeId kSelf = 0;
  constexpr NodeId kTarget = 1;
  constexpr NodeId kIds = 40;  // a small id pool, so ids repeat
  constexpr std::uint32_t kMaxAge = 12;
  const VicinityConfig cfg{.view_size = 20, .exchange_len = 10, .max_age = kMaxAge};
  auto drop = [](NodeId, MessagePtr) {};
  Rng rng(2024);
  std::size_t compared = 0;
  for (const int d : {1, 2, 5, 16}) {
    for (const int levels : {1, 3, 6}) {
      // Cells: width 10 on [0, 10 * 2^levels). The store's space has one
      // level more with the same cuts, so its coordinates past the ranking
      // space's last cell are outside that space and cannot be classified.
      const AttrValue width = AttrValue{10} << levels;
      const auto space = AttributeSpace::uniform(d, levels, 0, width);
      const auto wide = AttributeSpace::uniform(d, levels + 1, 0, 2 * width);
      const Cells cells(space);
      DescriptorStore store(wide);
      // One point in eight lies outside the ranking space (never self's).
      auto random_point = [&](NodeId id) {
        Point p;
        for (int j = 0; j < d; ++j) p.push_back(rng.below(width));
        if (id != kSelf && rng.below(8) == 0) p[rng.index(p.size())] += width;
        return p;
      };
      // Ages run past max_age.
      auto candidates = [&](std::size_t n) {
        std::vector<PeerDescriptor> out;
        for (std::size_t i = 0; i < n; ++i) {
          const auto id = static_cast<NodeId>(rng.below(kIds));
          const auto age = static_cast<std::uint32_t>(rng.below(kMaxAge + 4));
          out.push_back(materialize(store, {id, age}));
        }
        return out;
      };
      SCOPED_TRACE("d=" + std::to_string(d) + " levels=" + std::to_string(levels));
      for (int trial = 0; trial < 250; ++trial) {
        for (NodeId id = 0; id < kIds; ++id) store.put(id, random_point(id));
        const CellCoord self_coord = store.coord_of(kSelf);
        Rng unused(1);
        Vicinity v(kSelf, cells, store, cfg, unused, drop);
        const ReferenceSelection ref{cells, store, kSelf, self_coord, kMaxAge};

        const auto cands = candidates(rng.below(60));
        const std::size_t cap = rng.below(cands.size() + 4);
        ASSERT_EQ(id_ages(v.select_best(cands, cap)),
                  id_ages(ref.select_best(cands, cap)))
            << "trial " << trial << ", cap " << cap;

        // The view comes from a merge; the CYCLON view is filled directly,
        // so it may hold self and the target.
        v.seed(candidates(rng.below(40)), View(0));
        View cyclon(20);
        for (const auto& c : candidates(rng.below(25))) {
          cyclon.insert_or_refresh({c.id, c.age});
        }
        const std::size_t k = rng.below(v.view().size() + cyclon.size() + 4);
        const PeerDescriptor target = materialize(store, {kTarget, 0});
        ASSERT_EQ(id_ages(v.subset_for(target, cyclon, k)),
                  id_ages(ref.subset_for(kTarget, v.view(), cyclon, k)))
            << "trial " << trial << ", k " << k;
        compared += 2;
      }
    }
  }
  EXPECT_EQ(compared, 6000u);
}

}  // namespace
}  // namespace ares
