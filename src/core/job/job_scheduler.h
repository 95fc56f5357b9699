// The gts::JobScheduler serving API: concurrent multi-job execution over
// one GtsEngine with shared-topology streaming.
//
// Submit(kernel, options) enqueues a job and returns a JobHandle; the
// scheduler forms batches of up to GtsOptions::max_concurrent_jobs jobs
// (priority-ordered, FIFO within a priority) and executes each batch as
// one engine epoch in which every job owns a private WA partition and
// RunReport/metrics scope while the PageCache, the gts::io DeviceQueues,
// the pass's page order, and the copy engines are shared. Per pass the
// engine merges the jobs' page demand into one PlanPass union, so a page
// streamed (or cache-resident) for one job services every job that wants
// it before it becomes eviction-candidate again -- two BFS jobs over the
// same graph stream each page once.
//
// Execution model: cooperative, driver-thread-per-batch. There is no
// background thread; the first thread to block in JobHandle::Wait()
// becomes the driver and runs whole batches to completion while later
// waiters park on a condition variable. Admission control: a job whose
// WA partition does not fit next to the already-admitted jobs' is
// deferred to the next batch (CapacityExceeded/ResourceExhausted-style
// backpressure -- queued jobs wait, never crash); a job that cannot fit
// even alone fails with the allocation error. Cancellation is checked at
// pass boundaries; a still-queued job cancels immediately.
//
// Every batch runs as one engine epoch, a single job as an epoch of one
// whose schedule is the paper's single-run schedule.
#ifndef GTS_CORE_JOB_JOB_SCHEDULER_H_
#define GTS_CORE_JOB_JOB_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/sync/sync.h"
#include "common/status.h"
#include "core/job/job_exec.h"
#include "core/job/job_options.h"
#include "core/run_report.h"
#include "graph/types.h"

namespace gts {

class GtsEngine;
class JobScheduler;

/// Lifecycle of a submitted job.
enum class JobState : uint8_t {
  kQueued,   ///< waiting for a batch slot (or for WA memory)
  kRunning,  ///< part of the active batch epoch
  kDone,     ///< result available (ok, failed, or cancelled)
};

/// Caller-side handle to one submitted job. Cheap to copy (shared
/// ownership of the job record); all methods are thread-safe.
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return rec_ != nullptr; }
  uint64_t id() const;
  JobState state() const;

  /// Blocks until the job completes and returns its report. The calling
  /// thread may become the scheduler's driver: it executes whole batches
  /// (including other jobs' work) until this job is done. Waiting on an
  /// invalid handle returns InvalidArgument.
  Result<RunReport> Wait();

  /// Requests cancellation. A queued job completes immediately with
  /// Status::Cancelled; a running job is cancelled at its next pass
  /// boundary (its Wait() then returns Cancelled). Returns true if the
  /// job had not already finished, false otherwise.
  bool Cancel();

  /// Non-blocking: the job's result if it has completed, std::nullopt
  /// otherwise. Never drives the scheduler -- some thread must be in
  /// Wait() (or submitting more work) for queued jobs to progress.
  std::optional<Result<RunReport>> TryJoin();

 private:
  friend class JobScheduler;
  struct Record;
  explicit JobHandle(std::shared_ptr<Record> rec) : rec_(std::move(rec)) {}
  std::shared_ptr<Record> rec_;
};

/// The scheduler. One per engine (constructed by the engine; reach it
/// via GtsEngine::scheduler()). All methods are thread-safe.
class JobScheduler {
 public:
  explicit JobScheduler(GtsEngine* engine);
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Enqueues one job: a complete traversal (options.source seeds the
  /// frontier) or one full scan pass, per the kernel's access pattern.
  JobHandle Submit(GtsKernel* kernel, JobOptions options = {});

  /// Enqueues a job streaming exactly `pages` as one pass at traversal
  /// level `level` (algorithm phases that drive their own page sets,
  /// e.g. the betweenness backward sweep).
  JobHandle SubmitPass(GtsKernel* kernel, std::vector<PageId> pages,
                       uint32_t level = 0, JobOptions options = {});

  /// Submit(...).Wait() folded into `report`: accumulates the increment,
  /// refreshes the snapshot, returns the per-job increment. The Run*Gts
  /// drivers are thin wrappers over this.
  Result<RunMetrics> RunJob(GtsKernel* kernel, RunReport* report,
                            JobOptions options = {});

  /// SubmitPass(...).Wait() folded into `report`; see RunJob().
  Result<RunMetrics> RunPassJob(GtsKernel* kernel, RunReport* report,
                                std::vector<PageId> pages, uint32_t level = 0,
                                JobOptions options = {});

  /// Drains and fully compacts the engine's streaming-ingestion state
  /// (gts::ingest) at a guaranteed safe point: the calling thread takes
  /// the driver role -- waiting for any active batch epoch to finish --
  /// so no running job observes the transition. After an OK return the
  /// device pages are bit-identical to a fresh build of the updated
  /// graph. Queued jobs resume afterwards; FailedPrecondition when
  /// GtsOptions::ingest.enabled is false.
  Status QuiesceIngest();

  /// Jobs waiting for a batch slot (diagnostics / tests).
  size_t queued_jobs() const;

 private:
  friend class JobHandle;

  /// Shared implementation of Submit/SubmitPass.
  JobHandle SubmitPass(GtsKernel* kernel, std::vector<PageId> pages,
                       uint32_t level, JobOptions options, bool is_pass);

  /// Blocks until `rec` completes, becoming the driver when no other
  /// thread is driving.
  void DriveUntilDone(const std::shared_ptr<JobHandle::Record>& rec);

  /// Forms and executes one batch. Entered with `lk` held and
  /// driver_active_ set; unlocks around engine work.
  void RunCycle(analysis::sync::UniqueLock& lk);

  /// Folds a finished exec into its record (state, status, report).
  void CompleteLocked(const std::shared_ptr<JobHandle::Record>& rec);

  GtsEngine* engine_;
  mutable analysis::sync::Mutex mu_{"job.scheduler",
                                    analysis::sync::level::kScheduler};
  analysis::sync::CondVar cv_;
  std::deque<std::shared_ptr<JobHandle::Record>> queue_ GTS_GUARDED_BY(mu_);
  bool driver_active_ GTS_GUARDED_BY(mu_) = false;
  uint64_t next_id_ GTS_GUARDED_BY(mu_) = 1;
};

}  // namespace gts

#endif  // GTS_CORE_JOB_JOB_SCHEDULER_H_
