#include "io/io_options.h"

#include <string>

namespace gts {
namespace io {

std::string_view IoReorderKindName(IoReorderKind kind) {
  switch (kind) {
    case IoReorderKind::kFifo:
      return "fifo";
    case IoReorderKind::kElevator:
      return "elevator";
    case IoReorderKind::kSequentialMerge:
      return "seq-merge";
  }
  return "?";
}

Status IoOptions::Validate() const {
  if (queue_depth < 1) {
    return Status::InvalidArgument("io.queue_depth must be >= 1, got " +
                                   std::to_string(queue_depth));
  }
  if (inflight_slots != 0 && inflight_slots < queue_depth) {
    return Status::InvalidArgument(
        "io.inflight_slots " + std::to_string(inflight_slots) +
        " is below io.queue_depth " + std::to_string(queue_depth) +
        "; the queue could never fill (use 0 for the 2x auto default)");
  }
  return Status::OK();
}

}  // namespace io
}  // namespace gts
