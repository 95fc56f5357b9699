// Deterministic discrete-event timing of a GTS run.
//
// The engine *executes* operations on real streams for correctness, and in
// parallel *records* every logical operation (storage fetch, H2D copy,
// kernel, synchronization) here. ScheduleSimulator then replays the
// recorded program against the machine's resource model:
//
//   - each storage device is a serial queue;
//   - each GPU has one H2D/D2H copy engine: transfers never overlap each
//     other but do overlap kernel execution (Section 3.2, [5]);
//   - each GPU runs up to 32 kernels concurrently;
//   - consecutive ops on one stream are separated by the host issue
//     latency, which is why more streams keep helping (Figure 10);
//   - barriers model the per-level / per-pass bulk synchronization.
//
// The result is a reproducible timeline (Figure 4) and makespan that
// reflect the paper's machine rather than this host's wall clock.
#ifndef GTS_GPU_SCHEDULE_H_
#define GTS_GPU_SCHEDULE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gpu/time_model.h"
#include "graph/types.h"

namespace gts {
namespace gpu {

enum class OpKind : uint8_t {
  kStorageFetch,  // SSD/HDD -> MMBuf
  kStorageWrite,  // host -> SSD/HDD (ingest delta record / page rewrite)
  kH2DChunk,      // host -> device at c1 (WA chunk copy)
  kH2DStream,     // host -> device at c2 (SP/RA streaming copy)
  kH2DDirect,     // host -> device fine-grained zero-copy: only the
                  // active vertices' adjacency lists, at cache-line
                  // granularity over the copy engine (EMOGI-style)
  kD2H,           // device -> host at c1 (WA sync back)
  kP2P,           // device -> device (Strategy-P WA merge)
  kKernel,        // kernel execution
  kHostCompute,   // host-side work (nextPIDSet merge etc.)
  kBarrier,       // global synchronization point
};

std::string_view OpKindName(OpKind kind);

/// A resource an op occupies while running.
struct ResourceId {
  enum class Type : uint8_t {
    kNone = 0,       // op uses no contended resource (host compute, barrier)
    kStorageDevice,  // index = storage device
    kCopyEngine,     // index = GPU id
    kKernelPool,     // index = GPU id
    kHostCpuPool,    // host CPU co-processing (cap: cpu_worker_threads)
  };
  Type type = Type::kNone;
  int index = 0;

  friend bool operator==(const ResourceId&, const ResourceId&) = default;
};

using OpIndex = size_t;
inline constexpr OpIndex kNoOp = std::numeric_limits<OpIndex>::max();

/// One recorded operation. start/end are filled in by the simulator.
struct TimelineOp {
  OpKind kind = OpKind::kHostCompute;
  /// Logical stream carrying the op; ops on one stream run in order with
  /// the issue latency between them. -1 = the host thread (no gap).
  int stream_key = -1;
  ResourceId resource;
  SimTime duration = 0.0;
  OpIndex dep0 = kNoOp;  ///< optional explicit dependency
  OpIndex dep1 = kNoOp;
  uint64_t bytes = 0;           ///< informational (transfer size)
  PageId page = kInvalidPageId; ///< informational (which page)
  /// Always 0: storage ops are recorded when demanded, with no device
  /// queue in front of them. Still declared because the gtsbench layer
  /// metrics read it; it goes with the next change to the benchmark.
  SimTime queue_wait = 0.0;
  /// kStorageFetch only: the read continued its device's head under
  /// io.merge_sequential and was charged SequentialReadCost.
  bool merged = false;
  /// JobScheduler batch epochs only: the job this op works for, or -1
  /// for untagged infrastructure ops (shared page transfers, storage
  /// traffic, barriers) and every op of a single-job run. Informational
  /// (trace lanes + the validator's J1 job-isolation rule); never
  /// replayed by the simulator.
  int32_t job = -1;

  SimTime start = 0.0;
  SimTime end = 0.0;
};

/// Append-only log of operations in issue order.
class ScheduleRecorder {
 public:
  OpIndex Add(TimelineOp op) {
    ops_.push_back(op);
    return ops_.size() - 1;
  }

  /// Records a global barrier (depends on every previous op) of the given
  /// duration (e.g. t_sync). Subsequent ops start after it.
  OpIndex AddBarrier(SimTime duration) {
    TimelineOp op;
    op.kind = OpKind::kBarrier;
    op.duration = duration;
    return Add(op);
  }

  const std::vector<TimelineOp>& ops() const { return ops_; }
  /// Mutable access to a previously recorded op (duration patch-ups).
  TimelineOp& op(OpIndex idx) { return ops_[idx]; }
  std::vector<TimelineOp> TakeOps() { return std::move(ops_); }
  bool empty() const { return ops_.empty(); }
  void Clear() { ops_.clear(); }

 private:
  std::vector<TimelineOp> ops_;
};

/// Per-resource utilization in the computed schedule.
struct ResourceUsage {
  ResourceId resource;
  SimTime busy = 0.0;
};

struct ScheduleResult {
  SimTime makespan = 0.0;
  std::vector<TimelineOp> ops;  ///< with start/end filled in
  std::vector<ResourceUsage> usage;

  /// Total busy seconds of a resource type summed over instances.
  SimTime BusySeconds(ResourceId::Type type) const;
};

/// Replays an op log against the resource model.
class ScheduleSimulator {
 public:
  explicit ScheduleSimulator(const TimeModel& model) : model_(model) {}

  /// Ops must reference only earlier ops as dependencies.
  ScheduleResult Run(std::vector<TimelineOp> ops) const;

 private:
  TimeModel model_;
};

/// Renders per-stream lanes of a schedule as ASCII (Figure 4 style):
/// one row per stream, '=' for transfers, '#' for kernel execution.
std::string RenderTimelineAscii(const ScheduleResult& result, int columns = 100);

}  // namespace gpu
}  // namespace gts

#endif  // GTS_GPU_SCHEDULE_H_
