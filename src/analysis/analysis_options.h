// Knobs for the gts::analysis layer (race detection + schedule validation).
//
// Two independent checkers share this block:
//
//   - The vector-clock race detector is *compiled* behind the
//     -DGTS_RACE_CHECK build knob (GTS_RACE_CHECK_ENABLED); when the knob
//     is OFF the per-access instrumentation in KernelContext does not
//     exist, the engine never constructs a detector, and `race_check` is
//     ignored. When compiled in, the detector is
//     a pure observer: it records no timeline ops, so the schedule (and
//     the exported trace) is byte-identical with it on or off.
//   - The ScheduleValidator is always compiled (it is pure post-processing
//     over gpu::ScheduleResult and the pin/io event logs) and runs after
//     every engine epoch unless `validate_schedule` is false.
//
// Both are report-only by default: findings land in
// RunMetrics::analysis (a RaceReport) and the `analysis.*` counters. The
// `fail_on_*` switches turn findings into a FailedPrecondition run error
// for tests and CI.
#ifndef GTS_ANALYSIS_ANALYSIS_OPTIONS_H_
#define GTS_ANALYSIS_ANALYSIS_OPTIONS_H_

#include <cstdint>

// The build knob: -DGTS_RACE_CHECK=ON defines GTS_RACE_CHECK_ENABLED=1 on
// the whole target (see the top-level CMakeLists). Default to "compiled
// out" so translation units that do not go through CMake still build.
#ifndef GTS_RACE_CHECK_ENABLED
#define GTS_RACE_CHECK_ENABLED 0
#endif

namespace gts {
namespace analysis {

/// True when this binary was built with -DGTS_RACE_CHECK=ON.
inline constexpr bool kRaceCheckCompiled = GTS_RACE_CHECK_ENABLED != 0;

struct AnalysisOptions {
  /// Run the happens-before race detector (no-op unless the binary was
  /// built with -DGTS_RACE_CHECK=ON).
  bool race_check = true;
  /// Replay every run's ScheduleResult + event logs through the
  /// ScheduleValidator.
  bool validate_schedule = true;
  /// Turn detected races into a FailedPrecondition job error.
  bool fail_on_race = false;
  /// Turn schedule violations into a FailedPrecondition job error.
  bool fail_on_violation = false;
  /// Turn lock-order violations (GTS_SYNC_CHECK builds; harvested from
  /// the sync::LockRegistry at run finalization) into a job error.
  bool fail_on_lock_violation = false;
  /// Cap on per-run *stored* diagnostics (races and violations each);
  /// the detected-counts keep counting past the cap.
  uint32_t max_reported = 64;
};

}  // namespace analysis
}  // namespace gts

#endif  // GTS_ANALYSIS_ANALYSIS_OPTIONS_H_
