// A fixed, memory-bound probe of how fast the host runs right now.
//
// On a shared machine the memory system slows down and recovers as other
// tenants come and go: the engine's host time per query was measured to
// drift by 20-25% within minutes while the probe below drifted alike and
// the ratio of the two held within 4-8%. The benchmark therefore runs the
// probe between queries and reports host times scaled to the reference
// host, on which one probe takes kReferenceSeconds. The probe is the
// benchmark's own code and data, so no change to the program moves it.
//
// The probe runs in a child process of its own, so its graph (about 19 MiB
// resident) never counts toward the benchmark's peak resident set.
#ifndef GTSBENCH_SPEED_PROBE_H_
#define GTSBENCH_SPEED_PROBE_H_

#include <sys/types.h>

#include <memory>

#include "common/status.h"

namespace gtsbench {

class SpeedProbe {
 public:
  /// Median probe seconds on the reference host (a 4-core 2.0 GHz Xeon VM,
  /// RelWithDebInfo build).
  static constexpr double kReferenceSeconds = 0.025;

  /// Forks the probe process and waits until it has built a 2^18-vertex,
  /// 2^22-edge R-MAT graph from a fixed seed. Call it before the process
  /// starts any thread.
  static gts::Result<std::unique_ptr<SpeedProbe>> Start();

  /// Ends the probe process and waits for it.
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Host seconds of one BFS from the highest-degree vertex, run and timed
  /// in the probe process while the caller waits. Exits the program when
  /// the probe process is gone.
  double Run();

 private:
  SpeedProbe(pid_t pid, int fd) : pid_(pid), fd_(fd) {}

  pid_t pid_;
  /// Our end of a socket pair: one byte out per requested run, one double
  /// back per finished run.
  int fd_;
};

}  // namespace gtsbench

#endif  // GTSBENCH_SPEED_PROBE_H_
