#include "io/io_engine.h"

#include <utility>

namespace gts {
namespace io {

IoEngine::IoEngine(const PagedGraph* graph, PageStore* store,
                   IoOptions options, RecordFn record,
                   obs::MetricsRegistry* registry)
    : graph_(graph),
      store_(store),
      options_(options),
      record_(std::move(record)),
      heads_(store->num_devices(), kNoHead) {
  if (registry != nullptr) {
    completed_metric_ = &registry->GetCounter("io.completed");
    merged_metric_ = &registry->GetCounter("io.merged_bursts");
    spill_metric_ = &registry->GetCounter("io.spill_writes");
    rewrite_metric_ = &registry->GetCounter("io.page_rewrites");
  }
}

void IoEngine::BeginPass() {
  analysis::sync::Lock lock(mu_);
  heads_.assign(heads_.size(), kNoHead);
}

gpu::OpIndex IoEngine::RecordStorageOp(gpu::OpKind kind, size_t device,
                                       uint64_t offset, uint64_t length,
                                       SimTime cost, PageId page, bool merged,
                                       gpu::OpIndex dep) {
  heads_[device] = offset + length;
  if (cost <= 0.0 || record_ == nullptr) return gpu::kNoOp;
  gpu::TimelineOp op;
  op.kind = kind;
  op.resource = {gpu::ResourceId::Type::kStorageDevice,
                 static_cast<int>(device)};
  op.duration = cost;
  op.bytes = length;
  op.page = page;
  op.merged = merged;
  op.dep0 = dep;
  return record_(op);
}

Result<IoEngine::Fetched> IoEngine::Acquire(PageId pid) {
  analysis::sync::Lock lock(mu_);
  GTS_ASSIGN_OR_RETURN(PageStore::FetchResult fetch, store_->Fetch(pid));
  Fetched out;
  out.data = fetch.data;
  out.buffer_hit = fetch.buffer_hit;
  if (fetch.buffer_hit) return out;

  const size_t d = fetch.device_index;
  const uint64_t offset = store_->OffsetOfPage(pid);
  const uint64_t length = graph_->config().page_size;
  const bool merged = options_.merge_sequential && heads_[d] == offset;
  const SimTime cost =
      merged ? store_->device(d).timing().SequentialReadCost(length)
             : fetch.io_cost;
  out.device_index = d;
  out.fetch_op = RecordStorageOp(gpu::OpKind::kStorageFetch, d, offset, length,
                                 cost, pid, merged, gpu::kNoOp);
  ++stats_.completed;
  if (completed_metric_ != nullptr) completed_metric_->Add();
  if (merged) {
    ++stats_.merged_bursts;
    if (merged_metric_ != nullptr) merged_metric_->Add();
  }
  return out;
}

Result<gpu::OpIndex> IoEngine::Write(size_t device, uint64_t offset,
                                     const uint8_t* data, uint64_t length,
                                     gpu::OpIndex dep) {
  analysis::sync::Lock lock(mu_);
  GTS_RETURN_IF_ERROR(store_->WriteDevice(device, offset, data, length));
  ++stats_.spill_writes;
  if (spill_metric_ != nullptr) spill_metric_->Add();
  return RecordStorageOp(gpu::OpKind::kStorageWrite, device, offset, length,
                         store_->device(device).timing().WriteCost(length),
                         kInvalidPageId, /*merged=*/false, dep);
}

Result<gpu::OpIndex> IoEngine::RewritePage(PageId pid, const uint8_t* data,
                                           uint64_t length) {
  analysis::sync::Lock lock(mu_);
  GTS_RETURN_IF_ERROR(store_->RewritePage(pid, data, length));
  ++stats_.page_rewrites;
  if (rewrite_metric_ != nullptr) rewrite_metric_->Add();
  const size_t device = store_->DeviceOfPage(pid);
  return RecordStorageOp(gpu::OpKind::kStorageWrite, device,
                         store_->OffsetOfPage(pid), length,
                         store_->device(device).timing().WriteCost(length),
                         pid, /*merged=*/false, gpu::kNoOp);
}

}  // namespace io
}  // namespace gts
