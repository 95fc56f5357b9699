// Chrome trace_event export of a GTS run's op timeline.
//
// TraceExporter serializes one or more recorded gpu::ScheduleResult
// timelines (storage fetches, H2D/D2H/P2P transfers, kernels, barriers)
// to the Chrome trace_event JSON format, loadable in chrome://tracing or
// https://ui.perfetto.dev. Figure 4's overlap story becomes an artifact of
// every run: one track per storage device, one per GPU copy engine, and
// one per concurrent kernel lane per GPU.
//
// Track layout, for a run added with pid_base P:
//   pid P+0 "<label> host"     tid 0 host thread (merges, barriers),
//                              tid 1+i CPU co-processing lane i
//   pid P+1 "<label> storage"  tid d = storage device d (serial queue)
//   pid P+2+g "<label> GPU g"  tid 0 = copy engine (serial),
//                              tid 1+k = kernel lane k (greedy interval
//                              packing of the concurrent kernel pool)
//
// Timestamps are simulated microseconds. Export is deterministic: for one
// ScheduleResult the produced JSON is byte-identical across runs (events
// are emitted in a canonical order with fixed-precision formatting).
#ifndef GTS_OBS_TRACE_H_
#define GTS_OBS_TRACE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "gpu/schedule.h"

namespace gts {
namespace obs {

/// trace_event phase for an op kind: 'X' (complete event with a duration)
/// for everything that occupies time on a lane, 'i' (instant) for
/// barriers, which are synchronization points rather than work.
char TraceEventPhase(gpu::OpKind kind);

/// Per-run knobs for TraceExporter::AddRun.
struct TraceRunOptions {
  std::string label;         ///< process-name prefix, e.g. "BFS"
  int pid_base = 0;          ///< keep >= 100 apart so runs don't collide
  SimTime time_offset = 0.0; ///< shifts every timestamp (sequential runs)
};

/// Accumulates runs and serializes them as one trace JSON document.
class TraceExporter {
 public:
  /// Adds every op of `schedule` (with start/end filled in by the
  /// simulator) as trace events.
  void AddRun(const gpu::ScheduleResult& schedule,
              const TraceRunOptions& options = {});

  /// Attaches one key/value to the run group at `pid_base` as a metadata
  /// record (e.g. the dispatch policy names a bench swept). Shows up in
  /// the trace viewer's process metadata; emits no timeline events, so
  /// traces that never call this stay byte-identical.
  void AddRunMetadata(const std::string& key, const std::string& value,
                      int pid_base = 0);

  /// {"traceEvents":[...],"displayTimeUnit":"ms"} with one event per line.
  std::string ToJson() const;

  Status WriteFile(const std::string& path) const;

  size_t num_events() const { return events_.size(); }

 private:
  std::vector<std::string> metadata_;  // process/thread name records
  std::vector<std::string> events_;    // data events, canonical order
};

/// One-run convenience wrapper around TraceExporter.
std::string ChromeTraceJson(const gpu::ScheduleResult& schedule,
                            const std::string& label = "run");

}  // namespace obs
}  // namespace gts

#endif  // GTS_OBS_TRACE_H_
