#include "core/messages.h"

#include <cassert>

namespace ares {

static_assert(kNoSigma > 0, "sigma sentinel must be positive");

bool ids_ascending(std::span<const MatchRecord> records) {
  for (std::size_t i = 1; i < records.size(); ++i)
    if (records[i - 1].id >= records[i].id) return false;
  return true;
}

void merge_records(std::vector<MatchRecord>& held, std::span<const MatchRecord> run) {
  assert(ids_ascending(held) && ids_ascending(run));
  if (run.empty()) return;
  if (held.empty() || held.back().id < run.front().id) {
    held.insert(held.end(), run.begin(), run.end());
    return;
  }
  // Count the run's ids already held: those records are dropped.
  std::size_t dups = 0;
  for (std::size_t i = 0, j = 0; i < held.size() && j < run.size();) {
    if (held[i].id < run[j].id) {
      ++i;
    } else if (run[j].id < held[i].id) {
      ++j;
    } else {
      ++dups;
      ++i;
      ++j;
    }
  }
  if (dups == run.size()) return;
  // Grow once, then fill from the back. `w - i` counts the run records
  // still to place, so the write cursor never overtakes an unread held
  // record, and once they meet the held prefix is already in place.
  std::size_t i = held.size();
  std::size_t j = run.size();
  std::size_t w = i + j - dups;
  held.resize(w);
  while (w > i) {
    if (i > 0 && held[i - 1].id > run[j - 1].id) {
      held[--w] = held[--i];
    } else {
      if (i == 0 || held[i - 1].id != run[j - 1].id) held[--w] = run[j - 1];
      --j;
    }
  }
}

}  // namespace ares
