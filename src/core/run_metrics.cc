#include "core/run_metrics.h"

namespace gts {

void RunMetrics::Accumulate(const RunMetrics& increment) {
  sim_seconds += increment.sim_seconds;
  levels += increment.levels;
  pages_streamed += increment.pages_streamed;
  transfer_bytes += increment.transfer_bytes;
  direct_pages += increment.direct_pages;
  direct_bytes += increment.direct_bytes;
  cpu_pages += increment.cpu_pages;
  sp_kernel_calls += increment.sp_kernel_calls;
  lp_kernel_calls += increment.lp_kernel_calls;
  cache_lookups += increment.cache_lookups;
  cache_hits += increment.cache_hits;
  shared_page_hits += increment.shared_page_hits;
  work += increment.work;
  io.buffer_hits += increment.io.buffer_hits;
  io.device_reads += increment.io.device_reads;
  io.bytes_read += increment.io.bytes_read;
  io_queue += increment.io_queue;
  pages_skipped += increment.pages_skipped;
  ingest_updates_applied += increment.ingest_updates_applied;
  ingest_deltas_flushed += increment.ingest_deltas_flushed;
  ingest_compactions += increment.ingest_compactions;
  ingest_overlay_hits += increment.ingest_overlay_hits;
  if (increment.cpu_lane_work.size() > cpu_lane_work.size()) {
    cpu_lane_work.resize(increment.cpu_lane_work.size());
  }
  for (size_t i = 0; i < increment.cpu_lane_work.size(); ++i) {
    cpu_lane_work[i] += increment.cpu_lane_work[i];
  }
  transfer_busy += increment.transfer_busy;
  kernel_busy += increment.kernel_busy;
  storage_busy += increment.storage_busy;
  level_pages.insert(level_pages.end(), increment.level_pages.begin(),
                     increment.level_pages.end());
  if (!increment.timeline.ops.empty()) timeline = increment.timeline;
  analysis.Accumulate(increment.analysis);
}

}  // namespace gts
