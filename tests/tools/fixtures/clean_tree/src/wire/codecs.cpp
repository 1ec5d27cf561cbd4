#include "runtime/message.h"

namespace ares::wire {

void register_builtin_codecs() {
  register_codec(Kind::kPing, {});
}

}  // namespace ares::wire
