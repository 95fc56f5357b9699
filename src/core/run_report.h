// The unified result and parameter block of every Run*Gts driver.
//
// Historically each algorithm grew its own result struct with a
// differently named RunMetrics field (`metrics`, `total`, ...) and each
// driver grew positional knobs (`max_hops`, `seed`, ...). This header is
// the common shape:
//
//   - every *GtsResult holds a `RunReport report` -- accumulated
//     RunMetrics plus a snapshot of the engine's metrics registry;
//   - every driver takes a trailing `const JobOptions&` for tuning knobs
//     (query identity -- source vertex, k -- stays positional).
//
// JobScheduler::RunJob / RunPassJob fold each pass into a RunReport, so
// drivers carry zero per-algorithm metric-copying code.
#ifndef GTS_CORE_RUN_REPORT_H_
#define GTS_CORE_RUN_REPORT_H_

#include <cstdint>

#include "core/job/job_options.h"
#include "core/run_metrics.h"
#include "obs/metrics.h"

namespace gts {

/// What a driver hands back about how its run(s) went: the accumulated
/// per-run counters plus the engine's registry at completion. Algorithm
/// outputs (levels, ranks, ...) live beside it in each *GtsResult.
struct RunReport {
  /// Counters accumulated over every engine pass of the driver.
  RunMetrics metrics;
  /// The engine's obs::MetricsRegistry after the final pass (cumulative
  /// over the engine's lifetime, not just this driver's runs).
  obs::MetricsSnapshot snapshot;

  void Accumulate(const RunMetrics& increment) {
    metrics.Accumulate(increment);
  }
};

}  // namespace gts

#endif  // GTS_CORE_RUN_REPORT_H_
