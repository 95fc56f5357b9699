// Selectors for how the engine dispatches a pass (see DESIGN.md
// "Dispatch"): the engine orders the pass's pages (OrderPages, see
// page_order.h), routes each page by the multi-GPU strategy (page j to
// GPU j mod n under Strategy-P, every page to every GPU under
// Strategy-S), then takes the next stream of that GPU's round-robin
// cursor. The defaults reproduce the paper's schedule bit-for-bit; the
// alternative orders are the ablation and the workload-aware orderings
// the ROADMAP calls for.
#ifndef GTS_CORE_DISPATCH_DISPATCH_OPTIONS_H_
#define GTS_CORE_DISPATCH_DISPATCH_OPTIONS_H_

#include <cstdint>
#include <string_view>

namespace gts {

/// The order of the pages within one pass.
enum class PageOrderKind : uint8_t {
  /// Paper default: all SPs, then all LPs (Section 3.2's kernel-switch
  /// avoidance).
  kSpThenLp,
  /// Ablation: one pid-sorted pass mixing SPs and LPs, paying the kernel
  /// switch overhead the separation exists to avoid.
  kInterleaved,
  /// Cached-resident PIDs first within each class, so every page still in
  /// cachedPIDMap hits before this pass's inserts can evict it (matters
  /// under LRU/FIFO churn; a no-op for the never-evicting kPinned).
  kCacheAffinity,
  /// Traversal levels sorted by active-slot count (descending), densest
  /// frontier pages first -- HyTGraph-style priority by active degree.
  /// Falls back to kSpThenLp for full scans (no frontier to count).
  kFrontierDensity,
};

std::string_view PageOrderKindName(PageOrderKind kind);

/// The dispatch block inside GtsOptions.
struct DispatchOptions {
  PageOrderKind order = PageOrderKind::kSpThenLp;
  /// Admission threshold for traversal levels: frontier pages whose
  /// degree-weighted activation count (active out-edges, see
  /// PidSet::EnableCounting) falls below this are skipped for the level
  /// and counted in `dispatch.skipped_pages` / RunMetrics::pages_skipped.
  ///
  /// 0 disables the filter. 1 is exact: a page whose activated vertices
  /// have zero out-edges combined can produce no expansions, so skipping
  /// it drops no WA updates. Values above 1 are a lossy approximation
  /// (the paper's near-empty-page tail cut) and may change results.
  /// kAutoMinActiveEdges derives the threshold per level from the
  /// observed active-edge distribution (see
  /// GtsEngine::EffectiveMinActiveEdges); explicit values stay exact.
  uint32_t min_active_edges = 0;
  /// Sentinel for min_active_edges: adapt the skip threshold per level
  /// to the frontier's density (HyTGraph's hybrid transfer-management
  /// idea) -- dense, uniform levels degrade to the exact threshold 1,
  /// skewed levels shed their near-empty page tail.
  static constexpr uint32_t kAutoMinActiveEdges = ~uint32_t{0};
  /// Inert: nothing in the engine reads this field. It selected the
  /// removed worker-claim ("pull") dispatch and stays declared only
  /// because the gtsbench workloads still assign it; it goes with the
  /// next change to the benchmark.
  bool work_stealing = false;
};

}  // namespace gts

#endif  // GTS_CORE_DISPATCH_DISPATCH_OPTIONS_H_
