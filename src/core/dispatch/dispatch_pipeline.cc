#include "core/dispatch/dispatch_pipeline.h"

#include <utility>

#include "storage/paged_graph.h"

namespace gts {
namespace {

GpuPartitionKind Resolve(GpuPartitionKind kind, bool replicate_stream_default,
                         int num_gpus) {
  if (kind == GpuPartitionKind::kStrategyDefault) {
    kind = replicate_stream_default ? GpuPartitionKind::kReplicate
                                    : GpuPartitionKind::kRoundRobin;
  }
  // With one GPU, replication and striping are the same stream; the
  // round-robin policy keeps replicates() false so the CPU-assist route
  // stays reachable (matching the monolithic engine's behavior).
  if (kind == GpuPartitionKind::kReplicate && num_gpus <= 1) {
    kind = GpuPartitionKind::kRoundRobin;
  }
  return kind;
}

}  // namespace

DispatchPipeline::DispatchPipeline(const DispatchOptions& options,
                                   bool replicate_stream_default,
                                   int num_gpus,
                                   obs::MetricsRegistry* registry)
    : order_(MakePageOrderPolicy(options.order, registry)),
      partition_(MakeGpuPartitionPolicy(
          Resolve(options.partition, replicate_stream_default, num_gpus),
          num_gpus, registry)) {
  if (registry != nullptr) {
    passes_ = &registry->GetCounter("dispatch.passes");
    pages_ = &registry->GetCounter("dispatch.pages_ordered");
  }
}

std::vector<PageId> DispatchPipeline::PlanPass(std::vector<PageId> sps,
                                               std::vector<PageId> lps,
                                               const PagedGraph& graph,
                                               const PageOrderContext& ctx) {
  if (partition_->needs_pass_plan()) {
    std::vector<PageId> all;
    all.reserve(sps.size() + lps.size());
    all.insert(all.end(), sps.begin(), sps.end());
    all.insert(all.end(), lps.begin(), lps.end());
    partition_->BeginPass(all, graph);
  }
  if (passes_ != nullptr) passes_->Add();
  if (pages_ != nullptr) pages_->Add(sps.size() + lps.size());
  return order_->Order(std::move(sps), std::move(lps), ctx);
}

}  // namespace gts
