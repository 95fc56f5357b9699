// Selectors for how the engine dispatches a pass (see DESIGN.md
// "Dispatch"): the engine orders the pass's pages (OrderPages, see
// page_order.h), routes each page by the multi-GPU strategy (page j to
// GPU j mod n under Strategy-P, every page to every GPU under
// Strategy-S), then takes the next stream of that GPU's round-robin
// cursor. The defaults reproduce the paper's schedule bit-for-bit; the
// alternative orders are the SP/LP-interleaving ablation and the
// frontier-density order.
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
  /// Traversal levels sorted by active-slot count (descending), densest
  /// frontier pages first -- HyTGraph-style priority by active degree.
  /// Falls back to kSpThenLp for full scans (no frontier to count).
  kFrontierDensity,
};

std::string_view PageOrderKindName(PageOrderKind kind);

/// The dispatch block inside GtsOptions.
struct DispatchOptions {
  PageOrderKind order = PageOrderKind::kSpThenLp;
  /// Skip, on every traversal level, each frontier page whose activated
  /// vertices have no out-edges between them (a degree-weighted count of
  /// 0, see PidSet::EnableCounting): such a page can expand nothing, so
  /// skipping it changes no result and no WA update. Skipped pages are
  /// counted in `dispatch.skipped_pages` / RunMetrics::pages_skipped.
  /// Off by default: the paper streams every frontier page.
  bool skip_edgeless_pages = false;
  /// Inert: nothing in the engine reads this field. It selected the
  /// removed worker-claim ("pull") dispatch and stays declared only
  /// because the gtsbench workloads still assign it; it goes with the
  /// next change to the benchmark.
  bool work_stealing = false;
};

}  // namespace gts

#endif  // GTS_CORE_DISPATCH_DISPATCH_OPTIONS_H_
