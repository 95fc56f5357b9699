#include "transfer/page_stream_backend.h"

namespace gts {
namespace transfer {

PageStreamBackend::PageStreamBackend(Env env) : env_(std::move(env)) {
  if (env_.registry != nullptr) {
    // Touched up front so snapshot keys don't depend on whether a run
    // actually streamed anything (same contract as dispatch.*).
    pages_counter_ = &env_.registry->GetCounter("transfer.pages");
    bytes_counter_ = &env_.registry->GetCounter("transfer.bytes");
  }
}

void PageStreamBackend::PlanDemand(const PassInfo& info) {
  // The io engine prefetches the *demand* sequence: the ordered pages
  // that will actually reach Acquire. Pages every target GPU serves from
  // its page cache never touch storage (Algorithm 1 line 17), so planning
  // them would make the queues issue reads the synchronous path never
  // did. Env::will_demand is the engine's RoutePage + cache Contains
  // helper -- the same routing the dispatch loops use, so the demand
  // plan cannot drift from the actual routing. The Contains() filter is
  // still a prediction: under an evicting cache policy a page can pass
  // it here and miss at Acquire time (the pass's own inserts evicted
  // it); IoEngine::Acquire covers that window with a demand fetch routed
  // through the device queue.
  std::vector<PageId> demand;
  demand.reserve(info.ordered->size());
  for (PageId pid : *info.ordered) {
    if (env_.will_demand(pid)) demand.push_back(pid);
  }
  env_.io->BeginPass(demand);
}

void PageStreamBackend::BeginPass(const PassInfo& info) { PlanDemand(info); }

Result<StagedPage> PageStreamBackend::StagePageStream(
    const StageRequest& req) {
  const TimeModel& tm = *env_.time_model;
  const uint64_t page_size = env_.graph->config().page_size;
  GTS_ASSIGN_OR_RETURN(io::IoEngine::Fetched fetch,
                       env_.io->Acquire(req.pid));

  gpu::TimelineOp h2d;
  h2d.kind = gpu::OpKind::kH2DStream;
  h2d.stream_key = req.stream_key;
  h2d.resource = {gpu::ResourceId::Type::kCopyEngine, req.gpu};
  h2d.duration = static_cast<double>(page_size) / tm.c2;
  h2d.dep0 = fetch.fetch_op;
  h2d.bytes = page_size;
  h2d.page = req.pid;
  h2d.job = req.job;

  StagedPage staged;
  staged.data = fetch.data;
  staged.fetch_op = fetch.fetch_op;
  staged.transfer_op = env_.record(h2d);
  staged.bytes = page_size;
  staged.buffer_hit = fetch.buffer_hit;
  staged.device_index = fetch.device_index;
  if (pages_counter_ != nullptr) {
    pages_counter_->Add();
    bytes_counter_->Add(page_size);
  }
  return staged;
}

Result<StagedPage> PageStreamBackend::Stage(const StageRequest& req) {
  return StagePageStream(req);
}

}  // namespace transfer
}  // namespace gts
