// Micro-level (intra-page) parallel processing (Section 6.2, Appendix E).
//
// Kernels iterate a page through ProcessSpPage / ProcessLpPage, supplying
// an activity predicate and a per-edge body (or, through
// ProcessSpPageSlots, a per-slot body that walks the slot's list itself,
// for kernels with per-vertex work such as PageRank's share). The helpers
// execute the body (real work) and account simulated warp cycles under
// the configured strategy:
//
//   edge-centric (VWC [15]):  a 32-thread warp cooperates on one vertex's
//     list, so an active vertex costs ceil(deg/32) coalesced warp cycles;
//     scanning a slot costs 1/32 cycle.
//   vertex-centric: each thread owns one vertex; a warp of 32 consecutive
//     slots runs as long as its slowest member, and each per-thread edge
//     access is non-coalesced (penalty factor), so a warp costs
//     1 + kDivergencePenalty * max(active degree in warp) cycles.
//   hybrid: per page, whichever of the two predicts fewer cycles.
//
// On skewed (denser) pages the max-degree term explodes and edge-centric
// wins -- exactly the Figure 14 behaviour.
#ifndef GTS_CORE_MICRO_H_
#define GTS_CORE_MICRO_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/kernel.h"
#include "storage/slotted_page.h"

namespace gts {

inline constexpr uint32_t kWarpSize = 32;
/// Divergence-cycle multiplier on the slowest lane of a vertex-centric warp.
inline constexpr uint64_t kDivergencePenalty = 2;
/// Memory transactions per edge under vertex-centric execution: each thread
/// walks its own adjacency list, so accesses do not coalesce.
inline constexpr uint64_t kNonCoalescedFactor = 4;
/// Weight of one memory transaction relative to one warp cycle, used by the
/// hybrid strategy's per-page predictor (~mem_transaction_seconds /
/// warp_cycle_seconds for typical kernels).
inline constexpr uint64_t kHybridMemWeight = 1;

/// Per-thread scratch array of at least `n` elements for per-slot values
/// of one page walk, such as the values a kernel captures in its activity
/// pass. It grows to the largest page the thread has walked and is then
/// reused, so a kernel call allocates nothing. Contents are unspecified:
/// write an element before reading it. `Tag` keeps independent users
/// apart (scratch of one tag must not be live in two walks at once).
template <typename T, typename Tag = T>
T* SlotScratch(size_t n) {
  thread_local std::vector<T> scratch;
  if (scratch.size() < n) scratch.resize(n);
  return scratch.data();
}

namespace micro_internal {

/// Predicts warp cycles for a page given per-slot active degrees.
template <typename DegreeFn>
uint64_t PredictEdgeCentricCycles(uint32_t num_slots, DegreeFn&& deg) {
  uint64_t cycles = (num_slots + kWarpSize - 1) / kWarpSize;  // slot scan
  for (uint32_t s = 0; s < num_slots; ++s) {
    const uint64_t d = deg(s);
    cycles += (d + kWarpSize - 1) / kWarpSize;
  }
  return cycles;
}

template <typename DegreeFn>
uint64_t PredictVertexCentricCycles(uint32_t num_slots, DegreeFn&& deg) {
  uint64_t cycles = 0;
  for (uint32_t w = 0; w < num_slots; w += kWarpSize) {
    const uint32_t end = std::min(num_slots, w + kWarpSize);
    uint64_t max_deg = 0;
    for (uint32_t s = w; s < end; ++s) max_deg = std::max(max_deg, deg(s));
    cycles += 1 + kDivergencePenalty * max_deg;
  }
  return cycles;
}

}  // namespace micro_internal

/// Iterates a small page: for each slot s with vertex vid, if
/// `active(vid, s)` then `slot_fn(vid, s, list)` runs with the slot's
/// located record (an AdjList). Every slot's activity is evaluated, once,
/// before any slot_fn runs, so a kernel that writes WA mid-page sees the
/// page's activity as of its start. Slots whose active list is empty are
/// skipped. Returns WorkStats with warp cycles under `micro`.
template <typename ActiveFn, typename SlotFn>
WorkStats ProcessSpPageSlots(const PageView& page, MicroStrategy micro,
                             VertexId start_vid, ActiveFn&& active,
                             SlotFn&& slot_fn) {
  WorkStats stats;
  const uint32_t num_slots = page.num_slots();
  stats.scanned_slots = num_slots;

  // First pass: activity + degrees (cheap; mirrors the LV/frontier check a
  // real kernel performs before expanding). Each active slot's record is
  // located here, once; inactive slots keep an empty list.
  AdjList* lists = SlotScratch<AdjList>(num_slots);
  uint64_t active_edges = 0;
  for (uint32_t s = 0; s < num_slots; ++s) {
    if (active(start_vid + s, s)) {
      lists[s] = page.adj_list(s);
      active_edges += lists[s].size();
      ++stats.active_vertices;
    } else {
      lists[s] = AdjList{};
    }
  }

  const auto deg = [lists](uint32_t s) -> uint64_t { return lists[s].size(); };
  const uint64_t edge_cycles =
      micro_internal::PredictEdgeCentricCycles(num_slots, deg);

  MicroStrategy chosen = micro;
  if (micro == MicroStrategy::kHybrid) {
    const uint64_t vertex_cycles =
        micro_internal::PredictVertexCentricCycles(num_slots, deg);
    const uint64_t edge_metric =
        edge_cycles + kHybridMemWeight * active_edges;
    const uint64_t vertex_metric =
        vertex_cycles + kHybridMemWeight * kNonCoalescedFactor * active_edges;
    chosen = vertex_metric < edge_metric ? MicroStrategy::kVertexCentric
                                         : MicroStrategy::kEdgeCentric;
  }
  if (chosen == MicroStrategy::kVertexCentric) {
    stats.warp_cycles =
        micro_internal::PredictVertexCentricCycles(num_slots, deg);
    stats.mem_transactions = kNonCoalescedFactor * active_edges;
  } else {
    stats.warp_cycles = edge_cycles;
    stats.mem_transactions = active_edges;
  }

  // Second pass: the actual edge work. The list is copied out of the
  // scratch so the compiler can keep it in registers across WA stores.
  for (uint32_t s = 0; s < num_slots; ++s) {
    const AdjList list = lists[s];
    if (list.size() == 0) continue;
    slot_fn(start_vid + s, s, list);
  }
  stats.edges_processed = active_edges;
  return stats;
}

/// Iterates a small page: for each slot s with vertex vid, if
/// `active(vid, s)` then `edge_fn(vid, s, j, rid)` runs for each adjacency
/// entry j. Returns WorkStats with warp cycles under `micro`.
template <typename ActiveFn, typename EdgeFn>
WorkStats ProcessSpPage(const PageView& page, MicroStrategy micro,
                        VertexId start_vid, ActiveFn&& active,
                        EdgeFn&& edge_fn) {
  return ProcessSpPageSlots(
      page, micro, start_vid, active,
      [&edge_fn](VertexId vid, uint32_t s, const AdjList& list) {
        for (uint32_t j = 0; j < list.size(); ++j) edge_fn(vid, s, j, list[j]);
      });
}

/// Iterates a large-page chunk (single vertex). LPs are always processed
/// edge-centrically: the whole device's warps stripe the chunk.
template <typename EdgeFn>
WorkStats ProcessLpPage(const PageView& page, VertexId vid, bool active,
                        EdgeFn&& edge_fn) {
  WorkStats stats;
  stats.scanned_slots = 1;
  if (!active) {
    stats.warp_cycles = 1;
    return stats;
  }
  stats.active_vertices = 1;
  const AdjList list = page.adj_list(0);
  const uint32_t sz = list.size();
  for (uint32_t j = 0; j < sz; ++j) edge_fn(vid, j, list[j]);
  stats.edges_processed = sz;
  stats.warp_cycles = 1 + (sz + kWarpSize - 1) / kWarpSize;
  stats.mem_transactions = sz;
  return stats;
}

}  // namespace gts

#endif  // GTS_CORE_MICRO_H_
