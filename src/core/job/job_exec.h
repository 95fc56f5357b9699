// Per-job execution state of a JobScheduler batch epoch.
//
// A JobExec is the engine-facing half of a submitted job: what to run
// (kernel + options + optional explicit page set), the private state the
// job owns while concurrent jobs share the engine's streaming machinery
// (its WA partition per GPU, its frontier and per-GPU local nextPIDSets,
// its RunMetrics scope), and the lifecycle flags the scheduler reads at
// pass boundaries (admitted / finished / cancel).
//
// Every submission runs through GtsEngine::RunJobBatch, a single one as
// an epoch of one: its ops stay untagged (job_id -1) and its schedule is
// the paper's single-run schedule.
#ifndef GTS_CORE_JOB_JOB_EXEC_H_
#define GTS_CORE_JOB_JOB_EXEC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/frontier.h"
#include "core/job/job_options.h"
#include "core/kernel.h"
#include "core/run_metrics.h"
#include "gpu/device.h"
#include "graph/types.h"

namespace gts {

/// One job's slice of a GPU while its batch epoch is active: the private
/// WA partition and traversal frontier contribution. Stream buffers, the
/// page cache, and the copy engines stay shared across the epoch's jobs.
struct JobGpuSlice {
  gpu::DeviceBuffer wa_buf;
  std::unique_ptr<PidSet> local_next;  ///< traversal jobs only
  VertexId wa_begin = 0;
  VertexId wa_end = 0;
  std::vector<WorkStats> stream_work;  ///< accumulated per stream
};

/// The engine-facing state of one submitted job. Owned by the scheduler's
/// JobRecord; mutated only by the engine while a batch epoch runs (the
/// scheduler's driver thread), except `cancel`, which any thread may set.
struct JobExec {
  GtsKernel* kernel = nullptr;
  JobOptions options;

  /// SubmitPass jobs: stream exactly these pages as one pass at
  /// `pass_level` (the betweenness backward sweep, k-core peeling).
  /// Empty + !is_pass = a full Run (traversal loop or full scan).
  bool is_pass = false;
  std::vector<PageId> pages;
  uint32_t pass_level = 0;

  /// Dense per-epoch index used to tag this job's timeline ops (trace
  /// lanes + the validator's J1 rule) and key its race-detector WA
  /// domains. -1 until a multi-job epoch admits the job, and -1 for the
  /// whole of a one-job epoch.
  int32_t job_id = -1;

  // --- Batch-epoch runtime state (engine-owned) ---
  std::unique_ptr<PidSet> frontier;  ///< traversal jobs only
  int level = 0;
  uint64_t prev_updates = 0;  ///< for per-level WA-delta sizing
  bool admitted = false;
  bool participated = false;  ///< streamed pages in the current pass
  bool finished = false;
  Status status;
  RunMetrics metrics;
  std::vector<JobGpuSlice> gpus;  ///< one per GPU once admitted

  /// Set by JobHandle::Cancel from any thread; the engine checks it at
  /// pass boundaries and retires the job with Status::Cancelled.
  std::atomic<bool> cancel{false};

  bool traversal() const {
    return !is_pass &&
           kernel->access_pattern() == AccessPattern::kTraversal;
  }

  /// The traversal level this job's kernels see in the current pass.
  uint32_t cur_level() const {
    if (traversal()) return static_cast<uint32_t>(level);
    return is_pass ? pass_level : 0;
  }
};

}  // namespace gts

#endif  // GTS_CORE_JOB_JOB_EXEC_H_
