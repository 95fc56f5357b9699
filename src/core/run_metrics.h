// Per-run counters of one engine job (JobScheduler::Submit / SubmitPass).
//
// RunMetrics is the thin per-run compatibility view over the engine's
// observability layer: the same numbers are published cumulatively into
// the engine's obs::MetricsRegistry (see core/run_report.h for the
// registry snapshot carried next to these counters).
#ifndef GTS_CORE_RUN_METRICS_H_
#define GTS_CORE_RUN_METRICS_H_

#include <cstdint>
#include <vector>

#include "analysis/race_report.h"
#include "core/kernel.h"
#include "gpu/schedule.h"
#include "graph/types.h"
#include "io/io_engine.h"
#include "storage/page_store.h"

namespace gts {

/// Result of one job.
struct RunMetrics {
  SimTime sim_seconds = 0.0;  ///< simulated elapsed time of the run
  int levels = 0;             ///< traversal levels (1 for full scans)
  uint64_t pages_streamed = 0;  ///< H2D page transfers performed
  /// PCI-E bytes moved by topology transfers (page-stream + direct; RA
  /// attribute traffic excluded).
  uint64_t transfer_bytes = 0;
  /// Of pages_streamed, pages moved as fine-grained direct fetches
  /// (transfer.mode = direct/auto) and their byte share.
  uint64_t direct_pages = 0;
  uint64_t direct_bytes = 0;
  uint64_t cpu_pages = 0;       ///< pages co-processed on the host CPUs
  uint64_t sp_kernel_calls = 0;
  uint64_t lp_kernel_calls = 0;
  uint64_t cache_lookups = 0;
  uint64_t cache_hits = 0;
  /// Cache inserts rejected because every evictable page was pinned by an
  /// in-flight kernel (the page stayed on the streaming SPBuf/LPBuf path).
  uint64_t cache_backpressure = 0;
  /// JobScheduler batch epochs only: pages this job consumed that another
  /// concurrent job had already streamed (or cached) in the same pass.
  /// pages_streamed counts only first-demander transfers, so across a
  /// batch sum(pages_streamed) equals the distinct H2D page transfers.
  uint64_t shared_page_hits = 0;
  WorkStats work;
  PageStoreStats io;          ///< storage-level counters for this run
  io::IoStats io_queue;       ///< io-engine read/write counters
  /// Frontier pages skipped by dispatch.skip_edgeless_pages (their
  /// activated vertices had no out-edges).
  uint64_t pages_skipped = 0;

  // Streaming-ingestion activity attributed to this run (gts::ingest;
  // zero unless GtsOptions::ingest.enabled). Harvested as the delta
  // since the previous run's harvest, so a publish or quiesce that ran
  // between runs counts toward the next run. In a JobScheduler batch
  // these are epoch-cumulative, like the shared io counters.
  uint64_t ingest_updates_applied = 0;  ///< updates resolved into chains
  uint64_t ingest_deltas_flushed = 0;   ///< delta records persisted
  uint64_t ingest_compactions = 0;      ///< page rebuilds installed
  uint64_t ingest_overlay_hits = 0;     ///< staged pages patched

  /// Per-lane work of the host-CPU co-processing pool; empty unless the
  /// run used cpu_assist_fraction > 0. Deterministic: two identical
  /// hybrid runs produce identical per-lane stats (the lane cursor resets
  /// every run).
  std::vector<WorkStats> cpu_lane_work;

  /// For traversal runs with GtsKernel::collect_level_pages(): the page ids
  /// processed at each level (drives backward passes, e.g. betweenness).
  std::vector<std::vector<PageId>> level_pages;

  // Resource-busy breakdown from the schedule (for Table 1 style ratios).
  SimTime transfer_busy = 0.0;
  SimTime kernel_busy = 0.0;
  SimTime storage_busy = 0.0;

  /// Full op timeline; populated only with GtsOptions::keep_timeline.
  gpu::ScheduleResult timeline;

  /// gts::analysis findings for the run: schedule-invariant violations
  /// (always-on validator) and, under -DGTS_RACE_CHECK=ON, logical data
  /// races over the simulated schedule. Empty/clean by default.
  analysis::RaceReport analysis;

  /// Folds `increment` into this total. The single accumulation path for
  /// every multi-pass driver (PageRank iterations, radius hops, k-core
  /// rounds, BC's backward sweep):
  ///   - every additive counter (times, pages, kernel calls, cache and
  ///     storage counters -- including cache_backpressure -- and work)
  ///     is summed; `levels` sums too;
  ///   - `level_pages` appends, so a single accumulated run keeps its
  ///     frontier history;
  ///   - `timeline` keeps the increment's ops when it has any (the
  ///     per-run artifact of the *latest* pass; per-pass timelines live
  ///     in the individual RunMetrics).
  void Accumulate(const RunMetrics& increment);

  double cache_hit_rate() const {
    return cache_lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(cache_lookups);
  }
};

}  // namespace gts

#endif  // GTS_CORE_RUN_METRICS_H_
