#include "core/query_stats.h"

#include <algorithm>
#include <cassert>

#include "common/sorted.h"

namespace ares {

void QueryStats::Sink::on_query_visited(QueryId q, NodeId node, bool matched,
                                        bool is_origin) {
  Row& pq = sink_rows_[q];
  if (is_origin) pq.origin = node;

  if (track_visited_) {
    if (pq.visits == nullptr) pq.visits = std::make_unique<Visits>();
    if (!pq.visits->all.insert(node).second) {
      ++pq.duplicates;
      ++duplicates_;
      return;  // repeat visit: never recounted as hit or overhead
    }
    if (matched) pq.visits->matched.insert(node);
  }
  if (matched) {
    ++pq.hits;
    ++hits_;
  } else if (!is_origin) {
    ++pq.overhead;
    ++overhead_;
  }
}

void QueryStats::Sink::on_query_forwarded(QueryId q, NodeId /*from*/,
                                          NodeId /*to*/, int /*level*/,
                                          int /*dim*/) {
  ++sink_rows_[q].forwards;
  ++forwards_;
}

void QueryStats::Sink::on_query_completed(QueryId q, NodeId origin,
                                          const std::vector<MatchRecord>& matches) {
  Row& pq = sink_rows_[q];
  pq.origin = origin;
  pq.completed = true;
  pq.result_size = matches.size();
  ++completed_;
}

QueryStats::QueryStats(bool track_visited, std::uint32_t sinks) {
  assert(sinks >= 1);
  sinks_.reserve(sinks);
  for (std::uint32_t i = 0; i < sinks; ++i) sinks_.emplace_back(track_visited);
}

void QueryStats::add_row(PerQuery& into, const Sink::Row& row) {
  // The origin, the completion and a node's visits each land in one sink.
  if (row.origin != kInvalidNode) into.origin = row.origin;
  into.overhead += row.overhead;
  into.hits += row.hits;
  into.duplicates += row.duplicates;
  into.forwards += row.forwards;
  if (row.completed) {
    into.completed = true;
    into.result_size = row.result_size;
  }
  if (row.visits == nullptr) return;
  const auto visited_ids = sorted_elements(row.visits->all);
  into.visited.insert(visited_ids.begin(), visited_ids.end());
  const auto matched_ids = sorted_elements(row.visits->matched);
  into.matched_visited.insert(matched_ids.begin(), matched_ids.end());
}

const QueryStats::PerQuery* QueryStats::find(QueryId q) const {
  bool seen = false;
  for (const Sink& s : sinks_) {
    auto it = s.sink_rows_.find(q);
    if (it == s.sink_rows_.end()) continue;
    if (!seen) found_ = PerQuery{};
    seen = true;
    add_row(found_, it->second);
  }
  return seen ? &found_ : nullptr;
}

const std::map<QueryId, QueryStats::PerQuery>& QueryStats::per_query() const {
  folded_.clear();
  for (const Sink& s : sinks_)
    for (QueryId q : sorted_keys(s.sink_rows_)) add_row(folded_[q], s.sink_rows_.at(q));
  return folded_;
}

std::uint64_t QueryStats::sum(std::uint64_t Sink::*field) const {
  std::uint64_t total = 0;
  for (const Sink& s : sinks_) total += s.*field;
  return total;
}

double QueryStats::mean_overhead() const {
  std::vector<QueryId> ids;
  for (const Sink& s : sinks_) {
    const auto keys = sorted_keys(s.sink_rows_);
    ids.insert(ids.end(), keys.begin(), keys.end());
  }
  std::sort(ids.begin(), ids.end());
  const auto distinct = std::unique(ids.begin(), ids.end()) - ids.begin();
  if (distinct == 0) return 0.0;
  return static_cast<double>(total_overhead()) / static_cast<double>(distinct);
}

void QueryStats::clear() {
  for (Sink& s : sinks_) s = Sink(s.track_visited_);
  found_ = PerQuery{};
  folded_.clear();
}

}  // namespace ares
