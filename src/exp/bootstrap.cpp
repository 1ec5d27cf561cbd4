#include "exp/bootstrap.h"

#include <unordered_map>

#include "core/selection_node.h"
#include "space/cells.h"

namespace ares {
namespace {

/// Sibling-prefix bucket key: which slot population a member belongs to.
/// depth = k+1 (dimensions considered), prefix = low k+1 bits of the
/// member's half-signature inside its C_l cell.
std::uint64_t bucket_key(int depth, std::uint32_t prefix) {
  return (static_cast<std::uint64_t>(depth) << 32) | prefix;
}

std::uint32_t mask_low(int bits) {
  return bits >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << bits) - 1);
}

}  // namespace

void oracle_fill(const DescriptorStore& store, const std::vector<NodeId>& ids,
                 const std::function<RoutingTable*(std::size_t)>& target,
                 const OracleOptions& opt, Rng& rng) {
  const AttributeSpace& space = store.space();
  Cells cells(space);
  const int d = space.dimensions();
  const int L = space.max_level();
  const std::size_t n = ids.size();
  // Every member's cell is its store row: no per-level or per-offer
  // re-derivation from the values.
  auto cell_of = [&store, &ids](std::size_t i) { return store.coord_ptr(ids[i]); };
  auto peer = [&ids](std::size_t j) { return CompactPeer{ids[j], 0}; };

  // NOTE(determinism): the group maps below are iterated in hash order,
  // which is deterministic for a fixed standard library but not portable
  // across implementations. That order only affects *which* RNG draws feed
  // which cell's sampling (take < population), i.e. it reshuffles an
  // already-uniform choice; per-binary reproducibility — what the fig06
  // byte-identity gates check — is unaffected. exp/ is outside the
  // ares-lint unordered-iter rule for exactly this kind of harness code.

  // --- neighborsZero: complete level-0 cell membership ---
  if (opt.fill_zero) {
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> zero_groups;
    for (std::size_t i = 0; i < n; ++i)
      zero_groups[cells.cell_key(cell_of(i), 0)].push_back(i);
    for (const auto& [key, members] : zero_groups) {
      if (members.size() < 2) continue;
      for (std::size_t i : members) {
        RoutingTable* rt = target(i);
        if (rt == nullptr) continue;
        for (std::size_t j : members)
          if (i != j) rt->offer(peer(j));
      }
    }
  }

  // --- N(l,k) slots: per level, group members by C_l cell, then bucket by
  // half-signature prefixes so each node's sibling populations are direct
  // lookups. The half-signature's bit j says which half of C_l the member
  // occupies along dimension j (its level-(l-1) index parity).
  for (int l = 1; l <= L; ++l) {
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < n; ++i)
      groups[cells.cell_key(cell_of(i), l)].push_back(i);

    std::vector<std::uint32_t> sig(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const CellIndex* c = cell_of(i);
      std::uint32_t s = 0;
      for (int j = 0; j < d; ++j) s |= (Cells::at_level(c[j], l - 1) & 1u) << j;
      sig[i] = s;
    }

    for (const auto& [key, members] : groups) {
      if (members.size() < 2) continue;
      std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
      for (std::size_t i : members)
        for (int k = 0; k < d; ++k)
          buckets[bucket_key(k + 1, sig[i] & mask_low(k + 1))].push_back(i);

      for (std::size_t i : members) {
        RoutingTable* rt = target(i);
        if (rt == nullptr) continue;
        for (int k = 0; k < d; ++k) {
          // The sibling prefix: agree with us below dimension k, differ at k.
          std::uint32_t p =
              (sig[i] & mask_low(k)) | ((sig[i] ^ (std::uint32_t{1} << k)) &
                                        (std::uint32_t{1} << k));
          auto it = buckets.find(bucket_key(k + 1, p));
          if (it == buckets.end()) continue;  // empty subcell
          const auto& pop = it->second;
          std::size_t take = std::min(opt.per_slot, pop.size());
          if (take == pop.size()) {
            for (std::size_t j : pop) rt->offer(peer(j));
          } else {
            for (std::size_t idx : rng.sample_indices(pop.size(), take))
              rt->offer(peer(pop[idx]));
          }
        }
      }
    }
  }
}

void oracle_bootstrap(Network& net, const DescriptorStore& store,
                      const OracleOptions& opt) {
  // Snapshot all live protocol nodes.
  std::vector<SelectionNode*> nodes;
  std::vector<NodeId> ids;
  for (NodeId id : net.alive_ids()) {
    auto* sn = net.find_as<SelectionNode>(id);
    if (sn == nullptr) continue;
    nodes.push_back(sn);
    ids.push_back(id);
  }
  for (auto* sn : nodes) sn->routing().clear();
  oracle_fill(store, ids,
              [&nodes](std::size_t i) { return &nodes[i]->routing(); }, opt,
              net.sim().rng());
}

}  // namespace ares
