#include "algorithms/pagerank.h"

#include <atomic>
#include <cstring>

#include "core/job/job_scheduler.h"
#include "core/micro.h"

namespace gts {

PageRankKernel::PageRankKernel(VertexId num_vertices, float damping)
    : damping_(damping),
      rank_(num_vertices,
            num_vertices == 0 ? 0.0f
                              : 1.0f / static_cast<float>(num_vertices)),
      prev_(num_vertices, 0.0f),
      accum_(num_vertices, 0.0f) {}

void PageRankKernel::BeginIteration() {
  prev_ = rank_;
  const float base =
      rank_.empty() ? 0.0f
                    : (1.0f - damping_) / static_cast<float>(rank_.size());
  std::fill(accum_.begin(), accum_.end(), base);
}

void PageRankKernel::EndIteration() { rank_ = accum_; }

void PageRankKernel::InitDeviceWa(uint8_t* device_wa, VertexId begin,
                                  VertexId end) const {
  // Device buffers accumulate contributions only; they start at zero.
  std::memset(device_wa, 0, (end - begin) * sizeof(float));
}

void PageRankKernel::AbsorbDeviceWa(const uint8_t* device_wa, VertexId begin,
                                    VertexId end) {
  const auto* dev = reinterpret_cast<const float*>(device_wa);
  for (VertexId v = begin; v < end; ++v) {
    accum_[v] += dev[v - begin];
  }
}

namespace {
inline void Contribute(KernelContext& ctx, float* next_pr, float share,
                       const RecordId& rid, uint64_t* updates) {
  const VertexId adj_vid = ctx.rvt->ToVid(rid);
  if (!ctx.OwnsVertex(adj_vid)) return;  // Strategy-S: not our chunk
  ctx.WaFetchAdd(next_pr[adj_vid - ctx.wa_begin], share);
  ++*updates;
}
}  // namespace

WorkStats PageRankKernel::RunSp(const PageView& page, KernelContext& ctx) {
  if (page.num_slots() == 0) return WorkStats{};
  auto* next_pr = ctx.WaAs<float>();
  const float* prev_pr = ctx.RaAs<float>();  // indexed by slot
  const VertexId start_vid = page.slot_vid(0);
  const float df = damping_;

  uint64_t updates = 0;
  WorkStats stats = ProcessSpPageSlots(
      page, ctx.micro, start_vid,
      /*active=*/[](VertexId, uint32_t) { return true; },
      /*slot_fn=*/
      [&](VertexId, uint32_t slot, const AdjList& list) {
        const float share =
            df * prev_pr[slot] / static_cast<float>(list.size());
        for (uint32_t j = 0; j < list.size(); ++j) {
          Contribute(ctx, next_pr, share, list[j], &updates);
        }
      });
  stats.wa_updates = updates;
  return stats;
}

WorkStats PageRankKernel::RunLp(const PageView& page, KernelContext& ctx) {
  auto* next_pr = ctx.WaAs<float>();
  const float prev_value = ctx.RaAs<float>()[0];
  const VertexId vid = page.slot_vid(0);
  // K_PR_LP divides by the vertex's *total* degree, not the chunk size.
  const auto total_degree =
      static_cast<float>(page.header().lp_total_degree);
  const float share = damping_ * prev_value / total_degree;

  uint64_t updates = 0;
  WorkStats stats = ProcessLpPage(page, vid, /*active=*/true,
                                  [&](VertexId, uint32_t, const RecordId& rid) {
                                    Contribute(ctx, next_pr, share, rid,
                                               &updates);
                                  });
  stats.wa_updates = updates;
  return stats;
}

Result<PageRankGtsResult> RunPageRankGts(GtsEngine& engine,
                                         const JobOptions& options) {
  if (options.iterations < 1) {
    return Status::InvalidArgument("PageRank needs at least one iteration");
  }
  PageRankKernel kernel(engine.graph()->num_vertices(), options.damping);
  PageRankGtsResult result;
  for (int iter = 0; iter < options.iterations; ++iter) {
    kernel.BeginIteration();
    GTS_ASSIGN_OR_RETURN(
        RunMetrics metrics,
        engine.scheduler().RunJob(&kernel, &result.report, options));
    kernel.EndIteration();
    result.iterations.push_back(std::move(metrics));
  }
  result.ranks = kernel.ranks();
  return result;
}

}  // namespace gts
