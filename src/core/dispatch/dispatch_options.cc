#include "core/dispatch/dispatch_options.h"

namespace gts {

std::string_view PageOrderKindName(PageOrderKind kind) {
  switch (kind) {
    case PageOrderKind::kSpThenLp:
      return "sp-then-lp";
    case PageOrderKind::kInterleaved:
      return "interleaved";
    case PageOrderKind::kCacheAffinity:
      return "cache-affinity";
    case PageOrderKind::kFrontierDensity:
      return "frontier-density";
  }
  return "?";
}

std::string_view GpuPartitionKindName(GpuPartitionKind kind) {
  switch (kind) {
    case GpuPartitionKind::kStrategyDefault:
      return "strategy-default";
    case GpuPartitionKind::kRoundRobin:
      return "round-robin";
    case GpuPartitionKind::kReplicate:
      return "replicate";
    case GpuPartitionKind::kDegreeBalanced:
      return "degree-balanced";
  }
  return "?";
}

}  // namespace gts
