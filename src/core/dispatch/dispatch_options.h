// Policy selectors for the engine's three-stage page-dispatch pipeline
// (see DESIGN.md "Dispatch pipeline"): for every pass the engine first
// orders the work list (stage 1), then routes each page to its GPU(s)
// (stage 2), then takes the next stream of that GPU's round-robin cursor
// (stage 3, fixed). The defaults reproduce the paper's schedule
// bit-for-bit; the alternatives are the ablations and the workload-aware
// orderings the ROADMAP calls for.
#ifndef GTS_CORE_DISPATCH_DISPATCH_OPTIONS_H_
#define GTS_CORE_DISPATCH_DISPATCH_OPTIONS_H_

#include <cstdint>
#include <string_view>

namespace gts {

/// Stage 1: order of the pages within one pass.
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

/// Stage 2: which GPU(s) a page is streamed to.
enum class GpuPartitionKind : uint8_t {
  /// Follow GtsOptions::strategy: Strategy-P partitions the stream
  /// round-robin, Strategy-S replicates it to every GPU.
  kStrategyDefault,
  /// pid % num_gpus (Strategy-P's striping, Section 4.1).
  kRoundRobin,
  /// Every page to every GPU (Strategy-S's pattern, Section 4.2).
  kReplicate,
  /// Greedy least-loaded placement by page weight (slots + adjacency
  /// entries), evening out kernel time when page fill is skewed. Only
  /// valid where partitioned streams are (i.e. wherever kRoundRobin is).
  kDegreeBalanced,
};

std::string_view PageOrderKindName(PageOrderKind kind);
std::string_view GpuPartitionKindName(GpuPartitionKind kind);

/// The dispatch-pipeline block inside GtsOptions. Cross-option rules
/// (partition kind vs. strategy and GPU count) are checked by
/// GtsOptions::Validate().
struct DispatchOptions {
  PageOrderKind order = PageOrderKind::kSpThenLp;
  GpuPartitionKind partition = GpuPartitionKind::kStrategyDefault;
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
