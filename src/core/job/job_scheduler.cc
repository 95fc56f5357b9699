#include "core/job/job_scheduler.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "core/engine.h"

namespace gts {

/// The shared job record behind a JobHandle: scheduler bookkeeping plus
/// the engine-facing JobExec. Guarded by the scheduler's mu_ except
/// exec->cancel (atomic) and the engine-owned exec runtime fields, which
/// only the driver thread touches while the job is kRunning.
struct JobHandle::Record {
  uint64_t id = 0;
  JobScheduler* scheduler = nullptr;
  JobState state = JobState::kQueued;
  std::unique_ptr<JobExec> exec;
  bool has_result = false;
  Status status;
  RunReport report;
};

uint64_t JobHandle::id() const { return rec_ != nullptr ? rec_->id : 0; }

JobState JobHandle::state() const {
  if (rec_ == nullptr) return JobState::kDone;
  analysis::sync::Lock lock(rec_->scheduler->mu_);
  return rec_->state;
}

Result<RunReport> JobHandle::Wait() {
  if (rec_ == nullptr) {
    return Status::InvalidArgument("Wait() on an invalid JobHandle");
  }
  rec_->scheduler->DriveUntilDone(rec_);
  analysis::sync::Lock lock(rec_->scheduler->mu_);
  if (!rec_->status.ok()) return rec_->status;
  return rec_->report;
}

bool JobHandle::Cancel() {
  if (rec_ == nullptr) return false;
  JobScheduler* sched = rec_->scheduler;
  analysis::sync::Lock lock(sched->mu_);
  if (rec_->state == JobState::kDone) return false;
  rec_->exec->cancel.store(true, std::memory_order_relaxed);
  if (rec_->state == JobState::kQueued) {
    auto& queue = sched->queue_;
    queue.erase(std::remove(queue.begin(), queue.end(), rec_), queue.end());
    rec_->state = JobState::kDone;
    rec_->status = Status::Cancelled("job cancelled while queued");
    rec_->has_result = true;
    sched->engine_->metrics_registry()->GetCounter("jobs.cancelled").Add();
    sched->cv_.notify_all();
  }
  // A running job is cancelled at its next pass boundary by the engine.
  return true;
}

std::optional<Result<RunReport>> JobHandle::TryJoin() {
  if (rec_ == nullptr) {
    return Result<RunReport>(
        Status::InvalidArgument("TryJoin() on an invalid JobHandle"));
  }
  analysis::sync::Lock lock(rec_->scheduler->mu_);
  if (rec_->state != JobState::kDone) return std::nullopt;
  if (!rec_->status.ok()) return Result<RunReport>(rec_->status);
  return Result<RunReport>(rec_->report);
}

JobScheduler::JobScheduler(GtsEngine* engine) : engine_(engine) {}

JobScheduler::~JobScheduler() = default;

JobHandle JobScheduler::Submit(GtsKernel* kernel, JobOptions options) {
  return SubmitPass(kernel, {}, 0, options, /*is_pass=*/false);
}

JobHandle JobScheduler::SubmitPass(GtsKernel* kernel,
                                   std::vector<PageId> pages, uint32_t level,
                                   JobOptions options) {
  return SubmitPass(kernel, std::move(pages), level, options,
                    /*is_pass=*/true);
}

JobHandle JobScheduler::SubmitPass(GtsKernel* kernel,
                                   std::vector<PageId> pages, uint32_t level,
                                   JobOptions options, bool is_pass) {
  // The record is fully built before it becomes visible in the queue --
  // a concurrent Wait() may start driving the moment it is enqueued.
  auto rec = std::make_shared<JobHandle::Record>();
  rec->scheduler = this;
  rec->exec = std::make_unique<JobExec>();
  rec->exec->kernel = kernel;
  rec->exec->options = options;
  rec->exec->is_pass = is_pass;
  rec->exec->pages = std::move(pages);
  rec->exec->pass_level = level;
  analysis::sync::Lock lock(mu_);
  rec->id = next_id_++;
  if (kernel == nullptr) {
    rec->state = JobState::kDone;
    rec->status = Status::InvalidArgument("Submit() needs a kernel");
    rec->has_result = true;
    return JobHandle(std::move(rec));
  }
  queue_.push_back(rec);
  engine_->metrics_registry()->GetCounter("jobs.submitted").Add();
  cv_.notify_all();
  return JobHandle(std::move(rec));
}

Result<RunMetrics> JobScheduler::RunJob(GtsKernel* kernel, RunReport* report,
                                        JobOptions options) {
  JobHandle handle = Submit(kernel, options);
  auto result = handle.Wait();
  if (!result.ok()) return result.status();
  report->Accumulate(result->metrics);
  report->snapshot = result->snapshot;
  return result->metrics;
}

Result<RunMetrics> JobScheduler::RunPassJob(GtsKernel* kernel,
                                            RunReport* report,
                                            std::vector<PageId> pages,
                                            uint32_t level,
                                            JobOptions options) {
  JobHandle handle = SubmitPass(kernel, std::move(pages), level, options);
  auto result = handle.Wait();
  if (!result.ok()) return result.status();
  report->Accumulate(result->metrics);
  report->snapshot = result->snapshot;
  return result->metrics;
}

size_t JobScheduler::queued_jobs() const {
  analysis::sync::Lock lock(mu_);
  return queue_.size();
}

Status JobScheduler::QuiesceIngest() {
  // Take the driver role without running a batch: once driver_active_ is
  // ours no epoch is executing, so the engine can quiesce with nothing
  // pinned or staged. Waiters for queued jobs are woken afterwards.
  analysis::sync::UniqueLock lk(mu_);
  while (driver_active_) cv_.wait(lk);
  driver_active_ = true;
  lk.unlock();
  const Status status = engine_->QuiesceIngestExclusive();
  lk.lock();
  driver_active_ = false;
  cv_.notify_all();
  return status;
}

void JobScheduler::DriveUntilDone(
    const std::shared_ptr<JobHandle::Record>& rec) {
  analysis::sync::UniqueLock lk(mu_);
  for (;;) {
    if (rec->state == JobState::kDone) return;
    if (!driver_active_ && !queue_.empty()) {
      driver_active_ = true;
      RunCycle(lk);
      driver_active_ = false;
      cv_.notify_all();
      continue;
    }
    cv_.wait(lk);
  }
}

void JobScheduler::CompleteLocked(
    const std::shared_ptr<JobHandle::Record>& rec) {
  rec->state = JobState::kDone;
  rec->status = rec->exec->status;
  rec->has_result = true;
  if (rec->status.ok()) {
    rec->report.Accumulate(rec->exec->metrics);
    rec->report.snapshot = engine_->metrics_registry()->Snapshot();
  }
  auto& registry = *engine_->metrics_registry();
  if (rec->status.IsCancelled()) {
    registry.GetCounter("jobs.cancelled").Add();
  } else {
    registry.GetCounter("jobs.completed").Add();
  }
}

void JobScheduler::RunCycle(analysis::sync::UniqueLock& lk) {
  // Batch formation: cancelled-while-queued jobs retire immediately;
  // the rest are taken in priority order (stable, so FIFO within a
  // priority) up to max_concurrent_jobs.
  std::vector<std::shared_ptr<JobHandle::Record>> batch;
  {
    std::deque<std::shared_ptr<JobHandle::Record>> keep;
    for (auto& rec : queue_) {
      if (rec->exec->cancel.load(std::memory_order_relaxed)) {
        rec->exec->status = Status::Cancelled("job cancelled while queued");
        CompleteLocked(rec);
      } else {
        keep.push_back(rec);
      }
    }
    queue_ = std::move(keep);
  }
  const size_t max_jobs = static_cast<size_t>(
      std::max(1, engine_->options().max_concurrent_jobs));
  std::stable_sort(queue_.begin(), queue_.end(),
                   [](const auto& a, const auto& b) {
                     return std::max(1, a->exec->options.priority) >
                            std::max(1, b->exec->options.priority);
                   });
  while (!queue_.empty() && batch.size() < max_jobs) {
    batch.push_back(queue_.front());
    queue_.pop_front();
  }
  if (batch.empty()) return;
  for (auto& rec : batch) rec->state = JobState::kRunning;

  lk.unlock();
  std::vector<JobExec*> execs;
  execs.reserve(batch.size());
  for (auto& rec : batch) execs.push_back(rec->exec.get());
  const Status batch_status = engine_->RunJobBatch(execs);
  GTS_CHECK(batch_status.ok()) << batch_status.ToString();
  lk.lock();

  for (auto& rec : batch) {
    if (rec->exec->finished) {
      CompleteLocked(rec);
    } else {
      // Deferred by admission control: WA memory was oversubscribed.
      // Back to the queue front so the next cycle retries it first --
      // each cycle completes at least one job, so deferral cannot loop
      // forever (a job that cannot fit even alone fails instead).
      rec->state = JobState::kQueued;
      queue_.push_front(rec);
      engine_->metrics_registry()->GetCounter("jobs.deferred").Add();
    }
  }
  cv_.notify_all();
}

}  // namespace gts
