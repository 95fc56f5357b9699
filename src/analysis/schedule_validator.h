// Post-hoc schedule-invariant validation: replays a gpu::ScheduleResult
// (and the run's pin event log) and rejects impossible timelines.
//
// The discrete-event simulator *should* never produce these; the
// validator is the independent check that it (and every policy feeding
// it) actually didn't. Always compiled -- it is pure post-processing and
// runs after every engine run by default (AnalysisOptions).
//
// Rules over the op timeline:
//   R1 dep-order       a dependency's index precedes the op (an "event
//                      wait" may not precede its record) and the op
//                      starts no earlier than the dependency ends
//   R2 serial-overlap  ops on one serial resource (a storage device or a
//                      copy engine) never overlap in time
//   R3 stream-order    ops sharing a stream_key run in record order
//   R4 kernel-after-h2d a kernel reading a streamed page starts only
//                      after that page's H2D on its stream ends
//   R5 barrier         a barrier starts after every earlier op ends, and
//                      no later op starts before the barrier ends
//   R8 malformed-op    non-negative durations/queue waits, end >= start
//
// Rules over the pin event log:
//   R6 pin-lifetime    a cached page is never evicted while a pin is
//                      outstanding, and releases match pins
//   I1 pin-after-invalidate  once a cached page is invalidated (a
//                      gts::ingest publish superseded its image), no pin
//                      of that pid may occur until a fresh insert
//                      re-admits it -- such a pin would read stale bytes
//
// Job-scoped replay (JobScheduler batch epochs):
//   J1 job-isolation   an op tagged with a job (TimelineOp::job >= 0)
//                      may only depend on ops of the same job or on
//                      untagged infrastructure ops (job == -1); a
//                      cross-job dependency edge means one job's work
//                      was chained behind another's private state
#ifndef GTS_ANALYSIS_SCHEDULE_VALIDATOR_H_
#define GTS_ANALYSIS_SCHEDULE_VALIDATOR_H_

#include <cstdint>
#include <vector>

#include "analysis/event_log.h"
#include "analysis/race_report.h"
#include "gpu/schedule.h"

namespace gts {
namespace analysis {

struct ValidatorOptions {
  /// Absolute slack for floating-point interval comparisons (the
  /// simulator computes ends as start + duration exactly, so this only
  /// guards against representation noise).
  double epsilon = 1e-12;
  /// Cap on stored violation diagnostics (counters stay exact).
  uint32_t max_reported = 64;
};

class ScheduleValidator {
 public:
  explicit ScheduleValidator(ValidatorOptions options = {})
      : options_(options) {}

  /// Runs R1-R5 + R8 over the simulated timeline; findings are appended
  /// to `report` (violations_detected / schedule_checks / violations).
  void Check(const gpu::ScheduleResult& schedule, RaceReport* report) const;

  /// R6 + I1 over a PageCache pin-event log.
  void CheckPinEvents(const std::vector<PinEvent>& events,
                      RaceReport* report) const;

  /// J1 over a batch epoch's timeline: job-tagged ops depend only on
  /// same-job or untagged ops. A no-op for single-run schedules (no op
  /// carries a tag there).
  void CheckJobIsolation(const gpu::ScheduleResult& schedule,
                         RaceReport* report) const;

 private:
  void AddViolation(RaceReport* report, const char* rule, gpu::OpIndex op,
                    std::string detail) const;

  ValidatorOptions options_;
};

}  // namespace analysis
}  // namespace gts

#endif  // GTS_ANALYSIS_SCHEDULE_VALIDATOR_H_
