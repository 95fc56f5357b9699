#include "core/dispatch/dispatch_options.h"

namespace gts {

std::string_view PageOrderKindName(PageOrderKind kind) {
  switch (kind) {
    case PageOrderKind::kSpThenLp:
      return "sp-then-lp";
    case PageOrderKind::kInterleaved:
      return "interleaved";
    case PageOrderKind::kFrontierDensity:
      return "frontier-density";
  }
  return "?";
}

}  // namespace gts
