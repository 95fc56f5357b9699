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
