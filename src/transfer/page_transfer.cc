#include "transfer/page_transfer.h"

#include <algorithm>
#include <utility>

#include "core/cost_model.h"

namespace gts {
namespace transfer {

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

PageTransfer::PageTransfer(TransferMode mode, const PagedGraph* graph,
                           io::IoEngine* io, const TimeModel* time_model,
                           io::IoEngine::RecordFn record,
                           obs::MetricsRegistry& registry)
    : mode_(mode),
      graph_(graph),
      io_(io),
      time_model_(time_model),
      record_(std::move(record)) {
  // Registered up front so snapshot keys do not depend on whether a run
  // streamed anything, and differ only by mode.
  pages_ = &registry.GetCounter("transfer.pages");
  bytes_ = &registry.GetCounter("transfer.bytes");
  if (mode_ != TransferMode::kPageStream) {
    direct_pages_ = &registry.GetCounter("transfer.direct_pages");
    direct_bytes_ = &registry.GetCounter("transfer.direct_bytes");
    direct_levels_ = &registry.GetCounter("transfer.direct_levels");
    page_stream_levels_ = &registry.GetCounter("transfer.page_stream_levels");
    fallback_passes_ = &registry.GetCounter("transfer.fallback_passes");
  }
}

void PageTransfer::BeginPass(const std::vector<PageId>& ordered,
                             const PidSet* frontier) {
  direct_pass_ = false;
  frontier_ = frontier;
  if (mode_ == TransferMode::kPageStream) return;
  if (frontier == nullptr || !frontier->counting()) {
    // Full scans and explicit page passes: every vertex is live, so
    // whole-page streaming is strictly cheaper.
    fallback_passes_->Add();
    return;
  }
  if (mode_ == TransferMode::kDirect) {
    direct_pass_ = true;
  } else {
    // kAuto: which side of the crossover do the level's demanded SP
    // pages sit on?
    const PageConfig& config = graph_->config();
    TransferLevelStats stats;
    stats.page_size = config.page_size;
    stats.entry_bytes = static_cast<uint32_t>(config.entry_bytes());
    for (PageId pid : ordered) {
      if (graph_->kind(pid) == PageKind::kSmall) {
        ++stats.sp_pages;
        stats.active_vertices += frontier->VertexCountOf(pid);
        stats.active_edges += frontier->CountOf(pid);
      } else {
        ++stats.lp_pages;
      }
    }
    direct_pass_ = PreferDirectTransfer(stats, *time_model_);
  }
  (direct_pass_ ? direct_levels_ : page_stream_levels_)->Add();
}

StagedPage PageTransfer::Stage(PageId pid, const io::IoEngine::Fetched& fetch,
                               int gpu, int stream_key, int32_t job) {
  const TimeModel& tm = *time_model_;
  const PageConfig& config = graph_->config();

  gpu::TimelineOp h2d;
  h2d.kind = gpu::OpKind::kH2DStream;
  h2d.stream_key = stream_key;
  h2d.resource = {gpu::ResourceId::Type::kCopyEngine, gpu};
  h2d.duration = static_cast<double>(config.page_size) / tm.c2;
  h2d.dep0 = fetch.fetch_op;
  h2d.bytes = config.page_size;
  h2d.page = pid;
  h2d.job = job;
  // LP pages (a single hub's dense chunk) always stream whole.
  const bool direct = direct_pass_ && graph_->kind(pid) == PageKind::kSmall;
  if (direct) {
    TransferLevelStats page;
    page.sp_pages = 1;
    page.page_size = config.page_size;
    page.entry_bytes = static_cast<uint32_t>(config.entry_bytes());
    // A demanded SP page always holds at least one activation; clamp so
    // a count race can never price a zero-byte transfer.
    page.active_vertices =
        std::max<uint64_t>(1, frontier_->VertexCountOf(pid));
    page.active_edges = frontier_->CountOf(pid);
    h2d.kind = gpu::OpKind::kH2DDirect;
    h2d.duration = DirectLevelSeconds(page, tm);
    h2d.bytes = DirectTransferBytes(page, tm);
    direct_pages_->Add();
    direct_bytes_->Add(h2d.bytes);
  }
  pages_->Add();
  bytes_->Add(h2d.bytes);

  StagedPage staged;
  staged.transfer_op = record_(h2d);
  io_->NoteReader(fetch, staged.transfer_op);
  staged.bytes = h2d.bytes;
  staged.direct = direct;
  return staged;
}

}  // namespace transfer
}  // namespace gts
