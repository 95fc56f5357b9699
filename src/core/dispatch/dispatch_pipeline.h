// The assembled dispatch pipeline the engine drives:
//
//   pass page list --(1) PageOrderPolicy------> streamed order
//   each page      --(2) GpuPartitionPolicy---> GPU(s)
//
// Stage 3, the stream on that GPU, is the engine's per-GPU round-robin
// cursor. The pipeline owns the policy objects and the `dispatch.*`
// metrics; the engine owns everything stateful about the machine
// (buffers, caches, cursors) and passes the policies just enough of it
// per call.
#ifndef GTS_CORE_DISPATCH_DISPATCH_PIPELINE_H_
#define GTS_CORE_DISPATCH_DISPATCH_PIPELINE_H_

#include <memory>
#include <vector>

#include "core/dispatch/dispatch_options.h"
#include "core/dispatch/gpu_partition_policy.h"
#include "core/dispatch/page_order_policy.h"
#include "graph/types.h"
#include "obs/metrics.h"

namespace gts {

class PagedGraph;

class DispatchPipeline {
 public:
  /// `replicate_stream_default` carries the strategy choice without a
  /// dependency on engine.h: true under Strategy-S, where
  /// kStrategyDefault resolves to kReplicate. Replication needs more
  /// than one GPU; with one, every partition kind degrades to striping.
  DispatchPipeline(const DispatchOptions& options,
                   bool replicate_stream_default, int num_gpus,
                   obs::MetricsRegistry* registry);

  /// Runs stages 1-2 for one pass: computes the partition plan (when the
  /// policy needs one) and returns the streamed order -- a permutation of
  /// sps + lps.
  std::vector<PageId> PlanPass(std::vector<PageId> sps,
                               std::vector<PageId> lps,
                               const PagedGraph& graph,
                               const PageOrderContext& ctx);

  bool replicates() const { return partition_->replicates(); }
  int AssignGpu(PageId pid) const { return partition_->Assign(pid); }

  bool needs_frontier_counts() const {
    return order_->needs_frontier_counts();
  }

  PageOrderKind order_kind() const { return order_->kind(); }
  /// Resolved partition kind (never kStrategyDefault).
  GpuPartitionKind partition_kind() const { return partition_->kind(); }

 private:
  std::unique_ptr<PageOrderPolicy> order_;
  std::unique_ptr<GpuPartitionPolicy> partition_;
  obs::Counter* passes_ = nullptr;
  obs::Counter* pages_ = nullptr;
};

}  // namespace gts

#endif  // GTS_CORE_DISPATCH_DISPATCH_PIPELINE_H_
