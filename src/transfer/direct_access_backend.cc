#include "transfer/direct_access_backend.h"

#include <algorithm>

#include "core/cost_model.h"

namespace gts {
namespace transfer {

DirectAccessBackend::DirectAccessBackend(Env env, bool auto_mode)
    : PageStreamBackend(std::move(env)), auto_mode_(auto_mode) {
  if (env_.registry != nullptr) {
    direct_pages_counter_ =
        &env_.registry->GetCounter("transfer.direct_pages");
    direct_bytes_counter_ =
        &env_.registry->GetCounter("transfer.direct_bytes");
    direct_levels_counter_ =
        &env_.registry->GetCounter("transfer.direct_levels");
    stream_levels_counter_ =
        &env_.registry->GetCounter("transfer.page_stream_levels");
    fallback_counter_ =
        &env_.registry->GetCounter("transfer.fallback_passes");
  }
}

void DirectAccessBackend::BeginPass(const PassInfo& info) {
  frontier_ = info.frontier;
  if (frontier_ == nullptr || !frontier_->counting()) {
    // Full scans, explicit page passes, or counting disabled: every
    // vertex is live, so whole-page streaming is strictly cheaper.
    pass_mode_ = TransferMode::kPageStream;
    frontier_ = nullptr;
    if (fallback_counter_ != nullptr) fallback_counter_->Add();
    return;
  }
  if (!auto_mode_) {
    pass_mode_ = TransferMode::kDirect;
    if (direct_levels_counter_ != nullptr) direct_levels_counter_->Add();
    return;
  }

  // kAuto: aggregate the level's demanded-SP activation stats and ask
  // the cost model which side of the crossover this level sits on.
  const PageConfig& config = env_.graph->config();
  TransferLevelStats stats;
  stats.page_size = config.page_size;
  stats.entry_bytes = static_cast<uint32_t>(config.entry_bytes());
  for (PageId pid : *info.ordered) {
    if (env_.graph->kind(pid) == PageKind::kSmall) {
      ++stats.sp_pages;
      stats.active_vertices += frontier_->VertexCountOf(pid);
      stats.active_edges += frontier_->CountOf(pid);
    } else {
      ++stats.lp_pages;
    }
  }
  pass_mode_ = PreferDirectTransfer(stats, *env_.time_model)
                   ? TransferMode::kDirect
                   : TransferMode::kPageStream;
  if (pass_mode_ == TransferMode::kDirect) {
    if (direct_levels_counter_ != nullptr) direct_levels_counter_->Add();
  } else {
    if (stream_levels_counter_ != nullptr) stream_levels_counter_->Add();
  }
}

void DirectAccessBackend::PriceDirectPage(PageId pid, uint64_t* bytes,
                                          double* duration) const {
  const TimeModel& tm = *env_.time_model;
  const PageConfig& config = env_.graph->config();
  TransferLevelStats page;
  page.sp_pages = 1;
  page.page_size = config.page_size;
  page.entry_bytes = static_cast<uint32_t>(config.entry_bytes());
  // A demanded SP page always holds at least one activation; clamp
  // defensively so a count race can never price a zero-byte transfer.
  page.active_vertices = std::max<uint64_t>(1, frontier_->VertexCountOf(pid));
  page.active_edges = frontier_->CountOf(pid);
  *bytes = DirectTransferBytes(page, tm);
  *duration = DirectLevelSeconds(page, tm);
}

Result<StagedPage> DirectAccessBackend::Stage(const StageRequest& req) {
  // LP pages (a single hub's dense chunk) and page-stream passes keep
  // the classic whole-page op.
  if (pass_mode_ != TransferMode::kDirect ||
      env_.graph->kind(req.pid) != PageKind::kSmall) {
    return StagePageStream(req);
  }

  GTS_ASSIGN_OR_RETURN(io::IoEngine::Fetched fetch,
                       env_.io->Acquire(req.pid));

  uint64_t bytes = 0;
  double duration = 0.0;
  PriceDirectPage(req.pid, &bytes, &duration);

  gpu::TimelineOp h2d;
  h2d.kind = gpu::OpKind::kH2DDirect;
  h2d.stream_key = req.stream_key;
  h2d.resource = {gpu::ResourceId::Type::kCopyEngine, req.gpu};
  h2d.duration = duration;
  h2d.dep0 = fetch.fetch_op;
  h2d.bytes = bytes;
  h2d.page = req.pid;
  h2d.job = req.job;

  StagedPage staged;
  staged.data = fetch.data;
  staged.fetch_op = fetch.fetch_op;
  staged.transfer_op = env_.record(h2d);
  staged.bytes = bytes;
  staged.direct = true;
  staged.buffer_hit = fetch.buffer_hit;
  staged.device_index = fetch.device_index;
  if (pages_counter_ != nullptr) {
    pages_counter_->Add();
    bytes_counter_->Add(bytes);
    direct_pages_counter_->Add();
    direct_bytes_counter_->Add(bytes);
  }
  return staged;
}

std::string_view TransferModeName(TransferMode mode) {
  switch (mode) {
    case TransferMode::kPageStream:
      return "page_stream";
    case TransferMode::kDirect:
      return "direct";
    case TransferMode::kAuto:
      return "auto";
  }
  return "?";
}

std::unique_ptr<TransferBackend> MakeTransferBackend(
    const TransferOptions& options, TransferBackend::Env env) {
  switch (options.mode) {
    case TransferMode::kPageStream:
      return std::make_unique<PageStreamBackend>(std::move(env));
    case TransferMode::kDirect:
      return std::make_unique<DirectAccessBackend>(std::move(env),
                                                   /*auto_mode=*/false);
    case TransferMode::kAuto:
      return std::make_unique<DirectAccessBackend>(std::move(env),
                                                   /*auto_mode=*/true);
  }
  return std::make_unique<PageStreamBackend>(std::move(env));
}

}  // namespace transfer
}  // namespace gts
