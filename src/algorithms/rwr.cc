#include "algorithms/rwr.h"

#include <atomic>
#include <cstring>

#include "core/job/job_scheduler.h"
#include "core/micro.h"
#include "graph/csr_graph.h"

namespace gts {

RwrKernel::RwrKernel(VertexId num_vertices, VertexId seed, float restart_prob)
    : seed_(seed),
      restart_prob_(restart_prob),
      score_(num_vertices, 0.0f),
      prev_(num_vertices, 0.0f),
      accum_(num_vertices, 0.0f) {
  // The walk starts at the seed with probability mass 1.
  score_[seed] = 1.0f;
}

void RwrKernel::BeginIteration() {
  prev_ = score_;
  std::fill(accum_.begin(), accum_.end(), 0.0f);
  accum_[seed_] = restart_prob_;
}

void RwrKernel::EndIteration() { score_ = accum_; }

void RwrKernel::InitDeviceWa(uint8_t* device_wa, VertexId begin,
                             VertexId end) const {
  std::memset(device_wa, 0, (end - begin) * sizeof(float));
}

void RwrKernel::AbsorbDeviceWa(const uint8_t* device_wa, VertexId begin,
                               VertexId end) {
  const auto* dev = reinterpret_cast<const float*>(device_wa);
  for (VertexId v = begin; v < end; ++v) accum_[v] += dev[v - begin];
}

namespace {
inline void Walk(KernelContext& ctx, float* wa, float share,
                 const RecordId& rid, uint64_t* updates) {
  const VertexId adj_vid = ctx.rvt->ToVid(rid);
  if (!ctx.OwnsVertex(adj_vid)) return;
  ctx.WaFetchAdd(wa[adj_vid - ctx.wa_begin], share);
  ++*updates;
}
}  // namespace

WorkStats RwrKernel::RunSp(const PageView& page, KernelContext& ctx) {
  if (page.num_slots() == 0) return WorkStats{};
  auto* wa = ctx.WaAs<float>();
  const float* prev = ctx.RaAs<float>();
  const float walk_prob = 1.0f - restart_prob_;

  uint64_t updates = 0;
  WorkStats stats = ProcessSpPageSlots(
      page, ctx.micro, page.slot_vid(0),
      /*active=*/[](VertexId, uint32_t) { return true; },
      /*slot_fn=*/
      [&](VertexId, uint32_t slot, const AdjList& list) {
        const float share =
            walk_prob * prev[slot] / static_cast<float>(list.size());
        for (uint32_t j = 0; j < list.size(); ++j) {
          Walk(ctx, wa, share, list[j], &updates);
        }
      });
  stats.wa_updates = updates;
  return stats;
}

WorkStats RwrKernel::RunLp(const PageView& page, KernelContext& ctx) {
  auto* wa = ctx.WaAs<float>();
  const float prev_value = ctx.RaAs<float>()[0];
  const float share = (1.0f - restart_prob_) * prev_value /
                      static_cast<float>(page.header().lp_total_degree);

  uint64_t updates = 0;
  WorkStats stats = ProcessLpPage(
      page, page.slot_vid(0), /*active=*/true,
      [&](VertexId, uint32_t, const RecordId& rid) {
        Walk(ctx, wa, share, rid, &updates);
      });
  stats.wa_updates = updates;
  return stats;
}

Result<RwrGtsResult> RunRwrGts(GtsEngine& engine, VertexId seed,
                               const JobOptions& options) {
  const VertexId n = engine.graph()->num_vertices();
  if (seed >= n) return Status::InvalidArgument("RWR seed out of range");
  if (options.iterations < 1) {
    return Status::InvalidArgument("RWR needs at least one iteration");
  }
  RwrKernel kernel(n, seed, options.restart_prob);
  RwrGtsResult result;
  for (int iter = 0; iter < options.iterations; ++iter) {
    kernel.BeginIteration();
    GTS_RETURN_IF_ERROR(
        engine.scheduler().RunJob(&kernel, &result.report, options).status());
    kernel.EndIteration();
  }
  result.scores = kernel.scores();
  return result;
}

std::vector<double> ReferenceRwr(const CsrGraph& graph, VertexId seed,
                                 int iterations, double restart_prob) {
  const VertexId n = graph.num_vertices();
  std::vector<double> score(n, 0.0);
  std::vector<double> next(n);
  score[seed] = 1.0;
  for (int iter = 0; iter < iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    next[seed] = restart_prob;
    for (VertexId u = 0; u < n; ++u) {
      const auto neighbors = graph.neighbors(u);
      if (neighbors.empty()) continue;
      const double share = (1.0 - restart_prob) * score[u] /
                           static_cast<double>(neighbors.size());
      for (VertexId v : neighbors) next[v] += share;
    }
    std::swap(score, next);
  }
  return score;
}

}  // namespace gts
