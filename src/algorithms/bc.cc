#include "algorithms/bc.h"

#include <atomic>
#include <cstring>

#include "core/job/job_scheduler.h"
#include "core/micro.h"

namespace gts {

// ---------------------------------------------------------------- forward

BcForwardKernel::BcForwardKernel(VertexId num_vertices, VertexId source)
    : entries_(num_vertices, Entry{kUnvisited, 0.0f}) {
  entries_[source] = Entry{0, 1.0f};
}

void BcForwardKernel::InitDeviceWa(uint8_t* device_wa, VertexId begin,
                                   VertexId end) const {
  std::memcpy(device_wa, entries_.data() + begin,
              (end - begin) * sizeof(Entry));
}

void BcForwardKernel::AbsorbDeviceWa(const uint8_t* device_wa, VertexId begin,
                                     VertexId end) {
  // Single-GPU protocol: the device copy is authoritative.
  std::memcpy(entries_.data() + begin, device_wa,
              (end - begin) * sizeof(Entry));
}

namespace {

/// Claims/updates a neighbor during forward BFS: first touch sets its level
/// and seeds sigma; same-level touches accumulate sigma. 64-bit CAS keeps
/// {level, sigma} consistent.
inline void ForwardExpand(KernelContext& ctx, uint64_t* wa, float src_sigma,
                          uint32_t next_level, const RecordId& rid,
                          uint64_t* updates) {
  const VertexId adj_vid = ctx.rvt->ToVid(rid);
  if (!ctx.OwnsVertex(adj_vid)) return;
  uint64_t& word = wa[adj_vid - ctx.wa_begin];
  uint64_t observed = ctx.WaLoad(word);
  for (;;) {
    BcForwardKernel::Entry cur;
    std::memcpy(&cur, &observed, sizeof(cur));
    if (cur.level != BcForwardKernel::kUnvisited && cur.level != next_level) {
      return;  // already settled at a shallower depth
    }
    BcForwardKernel::Entry updated{next_level,
                                   (cur.level == next_level ? cur.sigma : 0.0f) +
                                       src_sigma};
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

WorkStats BcForwardKernel::RunSp(const PageView& page, KernelContext& ctx) {
  if (page.num_slots() == 0) return WorkStats{};
  auto* wa = ctx.WaAs<uint64_t>();
  const uint32_t next_level = ctx.cur_level + 1;
  // Sigmas of this page's vertices, captured during the activity pass.
  float* slot_sigma = SlotScratch<float, BcForwardKernel>(page.num_slots());

  uint64_t updates = 0;
  WorkStats stats = ProcessSpPage(
      page, ctx.micro, page.slot_vid(0),
      /*active=*/
      [&](VertexId vid, uint32_t slot) {
        Entry e;
        const uint64_t bits = ctx.WaLoad(wa[vid - ctx.wa_begin]);
        std::memcpy(&e, &bits, sizeof(e));
        slot_sigma[slot] = e.sigma;
        return e.level == ctx.cur_level;
      },
      /*edge_fn=*/
      [&](VertexId, uint32_t slot, uint32_t, const RecordId& rid) {
        ForwardExpand(ctx, wa, slot_sigma[slot], next_level, rid, &updates);
      });
  stats.wa_updates = updates;
  return stats;
}

WorkStats BcForwardKernel::RunLp(const PageView& page, KernelContext& ctx) {
  auto* wa = ctx.WaAs<uint64_t>();
  const VertexId vid = page.slot_vid(0);
  Entry e;
  const uint64_t bits = ctx.WaLoad(wa[vid - ctx.wa_begin]);
  std::memcpy(&e, &bits, sizeof(e));
  const bool active = e.level == ctx.cur_level;
  const uint32_t next_level = ctx.cur_level + 1;

  uint64_t updates = 0;
  WorkStats stats = ProcessLpPage(
      page, vid, active, [&](VertexId, uint32_t, const RecordId& rid) {
        ForwardExpand(ctx, wa, e.sigma, next_level, rid, &updates);
      });
  stats.wa_updates = updates;
  return stats;
}

// --------------------------------------------------------------- backward

BcBackwardKernel::BcBackwardKernel(
    const std::vector<BcForwardKernel::Entry>& fwd) {
  entries_.reserve(fwd.size());
  for (const auto& e : fwd) {
    entries_.push_back(Entry{0.0f, e.sigma, e.level});
  }
}

void BcBackwardKernel::InitDeviceWa(uint8_t* device_wa, VertexId begin,
                                    VertexId end) const {
  std::memcpy(device_wa, entries_.data() + begin,
              (end - begin) * sizeof(Entry));
}

void BcBackwardKernel::AbsorbDeviceWa(const uint8_t* device_wa,
                                      VertexId begin, VertexId end) {
  std::memcpy(entries_.data() + begin, device_wa,
              (end - begin) * sizeof(Entry));
}

WorkStats BcBackwardKernel::RunSp(const PageView& page, KernelContext& ctx) {
  if (page.num_slots() == 0) return WorkStats{};
  auto* entries = reinterpret_cast<Entry*>(ctx.wa);

  return ProcessSpPage(
      page, ctx.micro, page.slot_vid(0),
      /*active=*/
      [&](VertexId vid, uint32_t) {
        return ctx.WaRead(entries[vid - ctx.wa_begin].level) == ctx.cur_level;
      },
      /*edge_fn=*/
      [&](VertexId vid, uint32_t, uint32_t, const RecordId& rid) {
        const VertexId adj_vid = ctx.rvt->ToVid(rid);
        Entry& mine = entries[vid - ctx.wa_begin];
        Entry& succ = entries[adj_vid - ctx.wa_begin];
        const float succ_sigma = ctx.WaRead(succ.sigma);
        if (ctx.WaRead(succ.level) == ctx.cur_level + 1 && succ_sigma > 0.0f) {
          // Own slot: no concurrent writer for SP records (one record per
          // vertex); plain add is safe.
          const float add = ctx.WaRead(mine.sigma) / succ_sigma *
                            (1.0f + ctx.WaRead(succ.delta));
          ctx.WaStore(mine.delta, ctx.WaRead(mine.delta) + add);
        }
      });
}

WorkStats BcBackwardKernel::RunLp(const PageView& page, KernelContext& ctx) {
  auto* entries = reinterpret_cast<Entry*>(ctx.wa);
  const VertexId vid = page.slot_vid(0);
  Entry& mine = entries[vid - ctx.wa_begin];
  const bool active = ctx.WaRead(mine.level) == ctx.cur_level;

  return ProcessLpPage(
      page, vid, active, [&](VertexId, uint32_t, const RecordId& rid) {
        const VertexId adj_vid = ctx.rvt->ToVid(rid);
        Entry& succ = entries[adj_vid - ctx.wa_begin];
        const float succ_sigma = ctx.WaRead(succ.sigma);
        if (ctx.WaRead(succ.level) == ctx.cur_level + 1 && succ_sigma > 0.0f) {
          // LP chunks of one vertex may run on different streams.
          const float add = ctx.WaRead(mine.sigma) / succ_sigma *
                            (1.0f + ctx.WaRead(succ.delta));
          ctx.WaFetchAdd(mine.delta, add);
        }
      });
}

std::vector<double> BcBackwardKernel::Deltas() const {
  std::vector<double> out(entries_.size());
  for (size_t v = 0; v < entries_.size(); ++v) out[v] = entries_[v].delta;
  return out;
}

// ----------------------------------------------------------------- driver

Result<BcGtsResult> RunBcGts(GtsEngine& engine, VertexId source,
                             const JobOptions& options) {
  if (engine.num_gpus() != 1) {
    return Status::Unimplemented(
        "BC merges sigma across replicas; run it on a single GPU "
        "(the paper's Appendix D configuration)");
  }
  const VertexId n = engine.graph()->num_vertices();
  if (source >= n) return Status::InvalidArgument("BC source out of range");

  BcGtsResult result;
  BcForwardKernel forward(n, source);
  JobOptions fwd_job = options;
  fwd_job.source = source;
  GTS_ASSIGN_OR_RETURN(
      RunMetrics fwd_metrics,
      engine.scheduler().RunJob(&forward, &result.report, fwd_job));

  BcBackwardKernel backward(forward.entries());
  // Deepest level first; level_pages[l] holds the pages whose vertices sit
  // at depth l. The deepest recorded frontier needs no pass (no successors).
  const auto& level_pages = fwd_metrics.level_pages;
  for (int l = static_cast<int>(level_pages.size()) - 2; l >= 0; --l) {
    GTS_RETURN_IF_ERROR(engine.scheduler()
                            .RunPassJob(&backward, &result.report,
                                        level_pages[l],
                                        static_cast<uint32_t>(l), options)
                            .status());
  }
  result.deltas = backward.Deltas();
  result.deltas[source] = 0.0;  // Brandes: a source carries no dependency
  return result;
}

}  // namespace gts
