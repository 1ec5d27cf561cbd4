// MUST NOT COMPILE: a SelectionNode references its deployment's
// ProtocolConfig, so a temporary config would dangle once the constructor
// returns. The rvalue overload is deleted. Built with -DARES_NAMED_CONFIG,
// the same node over a named config is the positive control.
#include "core/selection_node.h"

int main() {
  const auto space = ares::AttributeSpace::uniform(1, 1, 0, 10);
  ares::DescriptorStore store(space);
#ifdef ARES_NAMED_CONFIG
  const ares::ProtocolConfig cfg{};
  ares::SelectionNode node(space, store, ares::Point{1}, cfg, {}, ares::Rng(1));
#else
  ares::SelectionNode node(space, store, ares::Point{1}, ares::ProtocolConfig{}, {},
                           ares::Rng(1));  // error: use of deleted constructor
#endif
  return node.active_queries() == 0 ? 0 : 1;
}
