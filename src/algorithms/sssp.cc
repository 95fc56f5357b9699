#include "algorithms/sssp.h"

#include <atomic>
#include <cstring>

#include "algorithms/reference.h"  // EdgeWeight
#include "core/job/job_scheduler.h"
#include "core/micro.h"

namespace gts {

SsspKernel::SsspKernel(VertexId num_vertices, VertexId source)
    : entries_(num_vertices,
               Entry{std::numeric_limits<float>::infinity(), kNeverUpdated}) {
  entries_[source] = Entry{0.0f, 0};
}

uint64_t SsspKernel::Pack(Entry e) {
  uint64_t bits;
  std::memcpy(&bits, &e, sizeof(bits));
  return bits;
}

SsspKernel::Entry SsspKernel::Unpack(uint64_t bits) {
  Entry e;
  std::memcpy(&e, &bits, sizeof(e));
  return e;
}

void SsspKernel::InitDeviceWa(uint8_t* device_wa, VertexId begin,
                              VertexId end) const {
  std::memcpy(device_wa, entries_.data() + begin,
              (end - begin) * sizeof(Entry));
}

void SsspKernel::AbsorbDeviceWa(const uint8_t* device_wa, VertexId begin,
                                VertexId end) {
  const auto* dev = reinterpret_cast<const Entry*>(device_wa);
  for (VertexId v = begin; v < end; ++v) {
    const Entry& candidate = dev[v - begin];
    Entry& mine = entries_[v];
    if (candidate.dist < mine.dist ||
        (candidate.dist == mine.dist && candidate.level < mine.level)) {
      mine = candidate;
    }
  }
}

namespace {

/// Relaxes dist[adj] with a 64-bit CAS loop; marks the target page when the
/// relaxation wins so the next level revisits it.
inline void Relax(KernelContext& ctx, uint64_t* wa, VertexId src_vid,
                  float src_dist, uint32_t next_level, const RecordId& rid,
                  uint64_t* updates) {
  const VertexId adj_vid = ctx.rvt->ToVid(rid);
  if (!ctx.OwnsVertex(adj_vid)) return;
  const float nd =
      src_dist + static_cast<float>(EdgeWeight(src_vid, adj_vid));
  uint64_t& word = wa[adj_vid - ctx.wa_begin];
  uint64_t observed = ctx.WaLoad(word);
  for (;;) {
    SsspKernel::Entry cur;
    std::memcpy(&cur, &observed, sizeof(cur));
    if (nd >= cur.dist) return;
    SsspKernel::Entry updated{nd, next_level};
    uint64_t desired;
    std::memcpy(&desired, &updated, sizeof(desired));
    if (ctx.WaCasWeak(word, observed, desired)) {
      ctx.MarkActivated(rid, adj_vid);
      ++*updates;
      return;
    }
  }
}

}  // namespace

WorkStats SsspKernel::RunSp(const PageView& page, KernelContext& ctx) {
  if (page.num_slots() == 0) return WorkStats{};
  auto* wa = ctx.WaAs<uint64_t>();
  const VertexId start_vid = page.slot_vid(0);
  const uint32_t next_level = ctx.cur_level + 1;

  // Distances of this page's vertices, captured during the activity pass.
  float* slot_dist = SlotScratch<float, SsspKernel>(page.num_slots());

  uint64_t updates = 0;
  WorkStats stats = ProcessSpPage(
      page, ctx.micro, start_vid,
      /*active=*/
      [&](VertexId vid, uint32_t slot) {
        const Entry e = Unpack(ctx.WaLoad(wa[vid - ctx.wa_begin]));
        slot_dist[slot] = e.dist;
        return e.level == ctx.cur_level;
      },
      /*edge_fn=*/
      [&](VertexId vid, uint32_t slot, uint32_t, const RecordId& rid) {
        Relax(ctx, wa, vid, slot_dist[slot], next_level, rid, &updates);
      });
  stats.wa_updates = updates;
  return stats;
}

WorkStats SsspKernel::RunLp(const PageView& page, KernelContext& ctx) {
  auto* wa = ctx.WaAs<uint64_t>();
  const VertexId vid = page.slot_vid(0);
  const Entry e = Unpack(ctx.WaLoad(wa[vid - ctx.wa_begin]));
  const bool active = e.level == ctx.cur_level;
  const uint32_t next_level = ctx.cur_level + 1;

  uint64_t updates = 0;
  WorkStats stats =
      ProcessLpPage(page, vid, active,
                    [&](VertexId, uint32_t, const RecordId& rid) {
                      Relax(ctx, wa, vid, e.dist, next_level, rid, &updates);
                    });
  stats.wa_updates = updates;
  return stats;
}

std::vector<double> SsspKernel::Distances() const {
  std::vector<double> out(entries_.size());
  for (size_t v = 0; v < entries_.size(); ++v) out[v] = entries_[v].dist;
  return out;
}

Result<SsspGtsResult> RunSsspGts(GtsEngine& engine, VertexId source,
                                 const JobOptions& options) {
  const VertexId n = engine.graph()->num_vertices();
  if (source >= n) {
    return Status::InvalidArgument("SSSP source out of range");
  }
  SsspKernel kernel(n, source);
  SsspGtsResult result;
  JobOptions job = options;
  job.source = source;
  GTS_RETURN_IF_ERROR(
      engine.scheduler().RunJob(&kernel, &result.report, job).status());
  result.distances = kernel.Distances();
  return result;
}

}  // namespace gts
