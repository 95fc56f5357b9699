#include "core/engine.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "core/engine_internal.h"
#include "core/job/job_exec.h"
#include "core/job/job_scheduler.h"
#include "obs/prof.h"

#if GTS_SYNC_CHECK_ENABLED
#include "analysis/sync/lock_registry.h"
#endif

namespace gts {

std::string_view StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kPerformance:
      return "Strategy-P";
    case Strategy::kScalability:
      return "Strategy-S";
  }
  return "?";
}

Status GtsOptions::Validate(const MachineConfig& machine) const {
  if (machine.num_gpus < 1) {
    return Status::InvalidArgument("machine needs at least one GPU, got " +
                                   std::to_string(machine.num_gpus));
  }
  if (num_streams < 1) {
    return Status::InvalidArgument("num_streams must be >= 1, got " +
                                   std::to_string(num_streams));
  }
  if (num_streams > kMaxStreamsPerGpu) {
    return Status::InvalidArgument(
        "num_streams " + std::to_string(num_streams) +
        " would alias StreamKey encodings across GPUs (max " +
        std::to_string(kMaxStreamsPerGpu) + ")");
  }
  if (max_levels < 1) {
    return Status::InvalidArgument("max_levels must be >= 1, got " +
                                   std::to_string(max_levels));
  }
  if (max_concurrent_jobs < 1) {
    return Status::InvalidArgument("max_concurrent_jobs must be >= 1, got " +
                                   std::to_string(max_concurrent_jobs));
  }
  if (max_concurrent_jobs > 1 && cpu_assist_fraction > 0.0) {
    return Status::InvalidArgument(
        "concurrent jobs do not compose with the host co-processing "
        "extension; set cpu_assist_fraction = 0 or max_concurrent_jobs = 1");
  }
  if (!(cpu_assist_fraction >= 0.0 && cpu_assist_fraction < 1.0)) {
    return Status::InvalidArgument(
        "cpu_assist_fraction must be in [0, 1), got " +
        std::to_string(cpu_assist_fraction));
  }
  if (cache_bytes != kAutoCacheBytes && cache_bytes > machine.device_memory) {
    return Status::InvalidArgument(
        "cache_bytes " + std::to_string(cache_bytes) +
        " exceeds device memory (" + std::to_string(machine.device_memory) +
        " B); use kAutoCacheBytes for whatever fits");
  }
  GTS_RETURN_IF_ERROR(ingest.Validate());
  return Status::OK();
}

namespace {
/// Host bytes of staged pages each GPU worker's ring can hold.
constexpr uint64_t kRingBytes = uint64_t{512} << 10;
}  // namespace

GtsEngine::GtsEngine(const PagedGraph* graph, PageStore* store,
                     MachineConfig machine, GtsOptions options)
    : graph_(graph),
      store_(store),
      machine_(machine),
      options_(options),
      registry_(std::make_shared<obs::MetricsRegistry>()),
      replicate_(options.strategy == Strategy::kScalability &&
                 machine.num_gpus > 1) {
  const Status valid = options_.Validate(machine_);
  GTS_CHECK(valid.ok()) << valid.ToString();
  store_->BindMetrics(registry_);
  io_ = std::make_unique<io::IoEngine>(
      graph_, store_, options_.io,
      [this](const gpu::TimelineOp& op) { return RecordOp(op); },
      registry_.get());
  transfer_ = std::make_unique<transfer::PageTransfer>(
      options_.transfer.mode, graph_, io_.get(), &machine_.time_model,
      [this](const gpu::TimelineOp& op) { return RecordOp(op); }, *registry_);
  if (options_.ingest.enabled) {
    ingest::EdgeStream::Env env;
    env.graph = graph_;
    env.options = options_.ingest;
    env.registry = registry_.get();
    env.num_devices = static_cast<int>(store_->num_devices());
    env.device_of_page = [this](PageId pid) {
      return static_cast<int>(store_->DeviceOfPage(pid));
    };
    // Delta records append past the device's striped base pages.
    env.delta_region_base = [this](int d) {
      return store_->DevicePageBytes(static_cast<size_t>(d));
    };
    env.write_delta = [this](int device, uint64_t offset,
                             const uint8_t* data, uint64_t length) {
      auto wrote =
          io_->Write(static_cast<size_t>(device), offset, data, length);
      GTS_CHECK_OK(wrote.status());
    };
    env.rewrite_page = [this](PageId pid, const uint8_t* data,
                              uint64_t length) {
      auto wrote = io_->RewritePage(pid, data, length);
      GTS_CHECK_OK(wrote.status());
    };
    ingest_ = std::make_unique<ingest::EdgeStream>(std::move(env));
  }
  if (analysis::kRaceCheckCompiled && options_.analysis.race_check) {
    race_ = std::make_unique<analysis::RaceDetector>(
        options_.analysis.max_reported);
  }
  // Touch the dispatch counters up front so snapshot keys don't depend
  // on whether a run actually planned a pass or skipped anything.
  registry_->GetCounter("dispatch.passes");
  registry_->GetCounter("dispatch.pages_ordered");
  if (options_.dispatch.order == PageOrderKind::kFrontierDensity) {
    registry_->GetCounter("dispatch.order.density_sorted");
  }
  if (options_.dispatch.skip_edgeless_pages) {
    registry_->GetCounter("dispatch.skipped_pages");
  }
  // Counted only by the retired per-stream thread mode; the key stays
  // so metrics snapshots keep their shape.
  registry_->GetCounter("gpu.stream_ops");
  // A multi-job epoch runs each GPU's kernels on up to one worker per
  // job, as many as fit beside the driver on the host's cores; a one-job
  // engine keeps one worker per GPU.
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  workers_per_gpu_ = std::min(options_.max_concurrent_jobs,
                              std::max(1, (cores - 1) / machine_.num_gpus));
  // Each ring holds at least one page per stream, and enough pages that
  // the driver can run ahead of the worker through a stretch of cheap
  // (cached) pages.
  const uint64_t page_size = graph_->config().page_size;
  const size_t ring_depth = std::max<size_t>(
      static_cast<size_t>(options_.num_streams), kRingBytes / page_size);
  for (int g = 0; g < machine_.num_gpus; ++g) {
    auto state =
        std::make_unique<GpuState>(workers_per_gpu_, ring_depth, page_size);
    state->device = std::make_unique<gpu::Device>(g, machine_.device_memory);
    gpus_.push_back(std::move(state));
  }
  for (PageId pid = 0; pid < graph_->num_pages(); ++pid) {
    max_slots_per_page_ =
        std::max(max_slots_per_page_, graph_->view(pid).num_slots());
  }
  demand_.resize(graph_->num_pages());
  merge_stamp_.assign(graph_->num_pages(), 0);
  scheduler_ = std::make_unique<JobScheduler>(this);
}

GtsEngine::~GtsEngine() = default;

void GtsEngine::WaRange(int g, bool traversal, VertexId* begin,
                        VertexId* end) const {
  const VertexId n = graph_->num_vertices();
  // Traversal kernels read WA entries of arbitrary neighbors, so WA is
  // replicated even under Strategy-S (the strategy then only changes the
  // streaming pattern: every page goes to every GPU, Section 4.2).
  if (options_.strategy == Strategy::kPerformance || machine_.num_gpus == 1 ||
      traversal) {
    *begin = 0;
    *end = n;
    return;
  }
  const VertexId chunk =
      (n + machine_.num_gpus - 1) / static_cast<VertexId>(machine_.num_gpus);
  *begin = std::min<VertexId>(n, chunk * static_cast<VertexId>(g));
  *end = std::min<VertexId>(n, *begin + chunk);
}

bool GtsEngine::CountFrontier() const {
  return options_.dispatch.order == PageOrderKind::kFrontierDensity ||
         options_.dispatch.skip_edgeless_pages ||
         options_.transfer.mode != transfer::TransferMode::kPageStream;
}

void GtsEngine::BuildDegreeTable() {
  if (graph_->num_vertices() == 0) return;
  // Rebuilt only on first use and -- with ingestion enabled -- whenever
  // the publish epoch moved since the last build: streamed inserts and
  // deletes change degrees, and a stale table would mis-weight frontier
  // counts (and so the edgeless-page skip).
  const uint64_t epoch = ingest_ != nullptr ? ingest_->epoch() : 0;
  if (!out_degrees_.empty() && epoch == degree_epoch_) return;
  out_degrees_.assign(graph_->num_vertices(), 0);
  for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
    const RecordId loc = graph_->VertexLocation(v);
    const PageView view = graph_->view(loc.pid);
    out_degrees_[v] = graph_->kind(loc.pid) == PageKind::kSmall
                          ? view.adjlist_size(loc.slot)
                          : view.header().lp_total_degree;
  }
  if (ingest_ != nullptr) ingest_->ApplyDegreeDeltas(&out_degrees_);
  degree_epoch_ = epoch;
}

void GtsEngine::PublishIngest() {
  if (ingest_ == nullptr) return;
#if GTS_SYNC_CHECK_ENABLED
  // A page pin held across the publish could observe a torn page after
  // the cache invalidation below; the registry flags any still held by
  // this thread.
  analysis::sync::LockRegistry::Global().NoteSafePoint("ingest-publish");
#endif
  const std::vector<PageId> changed = ingest_->Publish();
  if (changed.empty()) return;
  // Every cached copy of a changed page is one (or more) published
  // versions behind: invalidate so the next lookup restages the page
  // with the fresh chain overlaid. Entries still pinned turn stale (old
  // bytes live until the pin drops) -- but the driver releases every pin
  // before the safe point, so pins here would be engine bugs that rule
  // I1 flags.
  for (auto& gpu : gpus_) {
    if (gpu->cache == nullptr) continue;
    for (PageId pid : changed) (void)gpu->cache->Invalidate(pid);
  }
}

Status GtsEngine::QuiesceIngestExclusive() {
  if (ingest_ == nullptr) {
    return Status::FailedPrecondition(
        "streaming ingestion is disabled; construct the engine with "
        "GtsOptions::ingest.enabled = true");
  }
  // Caller (JobScheduler::QuiesceIngest) holds the driver role: no run
  // is active, so every page cache is empty (caches hold pages only
  // inside a run) and nothing holds staged bytes -- the changed set
  // needs no invalidation.
  (void)ingest_->Quiesce();
  return Status::OK();
}

void GtsEngine::ReleaseBuffers() {
  for (auto& gpu : gpus_) {
    gpu->device->Release(gpu->stream_buf_bytes);
    gpu->stream_buf_bytes = 0;
    if (gpu->cache != nullptr) gpu->cache->Close();
    gpu->cache = nullptr;
  }
}

gpu::OpIndex GtsEngine::RecordOp(gpu::TimelineOp op) {
  return recorder_.Add(op);
}

// ---------------------------------------------------------------------------
// Batch epochs: the engine's one run path. Every JobScheduler batch --
// a single submission is a batch of one -- runs as an epoch in which the
// admitted jobs share the streaming machinery (page cache, storage reads,
// dispatch, copy engines) while each owns a private WA partition,
// frontier, and metrics scope. The ops of a one-job epoch stay untagged
// and follow the paper's single-run schedule exactly; with several jobs
// every job-private op carries the job's tag (TimelineOp::job), which the
// validator's J1 job-isolation rule audits, and the race detector keeps
// one WA shadow domain per job and GPU.
// ---------------------------------------------------------------------------

Status GtsEngine::AdmitJobSlices(JobExec* job, int slot) {
  const uint32_t wa_b = job->kernel->wa_bytes_per_vertex();
  const bool tkernel =
      job->kernel->access_pattern() == AccessPattern::kTraversal;
  const int n_gpus = machine_.num_gpus;
  job->replicas.clear();
  job->replicas.resize(static_cast<size_t>(n_gpus) +
                       (options_.cpu_assist_fraction > 0.0 ? 1 : 0));
  for (size_t r = 0; r < job->replicas.size(); ++r) {
    JobReplica& replica = job->replicas[r];
    const int g = static_cast<int>(r);
    size_t lanes = static_cast<size_t>(options_.num_streams);
    if (g == n_gpus) {
      // The host CPUs' replica: the whole graph's WA in host memory, one
      // work record per CPU worker lane.
      replica.wa_end = graph_->num_vertices();
      replica.wa_buf = gpu::DeviceBuffer::Host(
          static_cast<uint64_t>(replica.wa_end) * wa_b);
      lanes = static_cast<size_t>(machine_.time_model.cpu_worker_threads);
    } else {
      WaRange(g, tkernel, &replica.wa_begin, &replica.wa_end);
      const uint64_t wa_bytes =
          static_cast<uint64_t>(replica.wa_end - replica.wa_begin) * wa_b;
      auto buf = gpus_[g]->device->Allocate(
          wa_bytes, "WABuf[job" + std::to_string(slot) + "]");
      if (!buf.ok()) {
        // Admission-control signal: release the partial allocation so the
        // next candidate (or the next epoch) sees the memory back.
        job->replicas.clear();
        return buf.status();
      }
      replica.wa_buf = std::move(buf).value();
    }
    if (tkernel) {
      replica.local_next = std::make_unique<PidSet>(graph_->num_pages());
      if (CountFrontier()) replica.local_next->EnableCounting();
    }
    replica.stream_work.assign(lanes, WorkStats{});
  }
  return Status::OK();
}

Status GtsEngine::SetupSharedStreamBuffers(uint32_t max_ra_b) {
  const uint64_t page_size = graph_->config().page_size;
  // Sized for the largest admitted RA record: one RABuf set serves every
  // job of the epoch.
  const uint64_t ra_bytes =
      static_cast<uint64_t>(max_slots_per_page_) * max_ra_b;
  for (int g = 0; g < machine_.num_gpus; ++g) {
    GpuState& gpu = *gpus_[g];
    for (int s = 0; s < options_.num_streams; ++s) {
      for (const char* buf : {"SPBuf[", "LPBuf["}) {
        GTS_RETURN_IF_ERROR(gpu.device->Reserve(
            page_size, buf + std::to_string(s) + "]"));
        gpu.stream_buf_bytes += page_size;
      }
      if (ra_bytes > 0) {
        GTS_RETURN_IF_ERROR(
            gpu.device->Reserve(ra_bytes, "RABuf[" + std::to_string(s) + "]"));
        gpu.stream_buf_bytes += ra_bytes;
      }
    }
    gpu.stream_last_kind.assign(static_cast<size_t>(options_.num_streams), -1);
    gpu.rr = 0;
  }
  return Status::OK();
}

Status GtsEngine::SetupCpuAssist(const GtsKernel* kernel) {
  if (options_.strategy == Strategy::kScalability && machine_.num_gpus > 1 &&
      kernel->access_pattern() != AccessPattern::kTraversal) {
    return Status::FailedPrecondition(
        "CPU co-processing needs Strategy-P (Strategy-S replicates the "
        "whole stream to every processor already)");
  }
  // The lane cursor starts every epoch at 0 (like the GPU stream cursor),
  // so two identical runs produce identical per-lane WorkStats.
  cpu_rr_ = 0;
  return Status::OK();
}

void GtsEngine::SetupCaches() {
  const uint64_t page_size = graph_->config().page_size;
  for (int g = 0; g < machine_.num_gpus; ++g) {
    GpuState& gpu = *gpus_[g];
    const uint64_t avail = gpu.device->available();
    const uint64_t cache_bytes =
        options_.cache_bytes == GtsOptions::kAutoCacheBytes
            ? avail
            : std::min(options_.cache_bytes, avail);
    if (gpu.page_cache == nullptr) {
      gpu.page_cache = std::make_unique<PageCache>(
          gpu.device.get(), 0, page_size, registry_.get(),
          "cache.gpu" + std::to_string(g));
      gpu.page_cache->BindPinLog(&pin_events_);
    }
    gpu.page_cache->Open(cache_bytes);
    gpu.cache = gpu.page_cache.get();
  }
}

void GtsEngine::ReleaseBatchBuffers(const std::vector<JobExec*>& jobs) {
  for (JobExec* job : jobs) job->replicas.clear();
  ReleaseBuffers();
}

Status GtsEngine::RunJobBatch(const std::vector<JobExec*>& jobs) {
  GTS_PROF_SCOPE("engine.run");
  const TimeModel& tm = machine_.time_model;

  // Entry validation + reset.
  std::vector<JobExec*> ready;
  for (JobExec* job : jobs) {
    job->admitted = false;
    job->participated = false;
    job->finished = false;
    job->status = Status::OK();
    job->metrics = RunMetrics{};
    job->level = 0;
    job->prev_updates = 0;
    job->job_id = -1;
    job->frontier.reset();
    job->replicas.clear();
    if (job->cancel.load(std::memory_order_relaxed)) {
      job->status = Status::Cancelled("job cancelled at level boundary");
      job->finished = true;
      continue;
    }
    if (job->traversal() &&
        (job->options.source == kInvalidVertexId ||
         job->options.source >= graph_->num_vertices())) {
      job->status =
          Status::InvalidArgument("traversal kernel needs a source vertex");
      job->finished = true;
      continue;
    }
    if (job->is_pass) {
      bool bad = false;
      for (PageId pid : job->pages) bad |= pid >= graph_->num_pages();
      if (bad) {
        job->status = Status::InvalidArgument("page id out of range");
        job->finished = true;
        continue;
      }
    }
    ready.push_back(job);
  }
  if (ready.empty()) return Status::OK();

  bool any_traversal = false;
  for (JobExec* job : ready) {
    any_traversal |=
        job->kernel->access_pattern() == AccessPattern::kTraversal;
  }

  // WA admission control, in batch (priority) order: a job whose
  // partition does not fit next to the already-admitted ones is deferred
  // to the next epoch; a job that cannot fit even alone fails with the
  // allocation error (otherwise deferral would loop forever).
  std::vector<JobExec*> admitted;
  for (JobExec* job : ready) {
    const Status st = AdmitJobSlices(job, static_cast<int>(admitted.size()));
    if (st.ok()) {
      job->admitted = true;
      admitted.push_back(job);
    } else if (admitted.empty()) {
      job->status = st;
      job->finished = true;
    }
    // else: deferred (stays !admitted, !finished; the scheduler requeues).
  }
  if (admitted.empty()) return Status::OK();

  // Shared stream buffers; on oversubscription defer admitted jobs from
  // the back until the shared set fits too.
  for (;;) {
    uint32_t max_ra_b = 0;
    for (JobExec* job : admitted) {
      max_ra_b = std::max(max_ra_b, job->kernel->ra_bytes_per_vertex());
    }
    const Status st = SetupSharedStreamBuffers(max_ra_b);
    if (st.ok()) break;
    ReleaseBuffers();
    JobExec* last = admitted.back();
    last->admitted = false;
    last->replicas.clear();
    if (admitted.size() == 1) {
      last->status = st;
      last->finished = true;
      return Status::OK();
    }
    admitted.pop_back();
  }

  // Host co-processing: Validate() keeps cpu_assist_fraction > 0 to
  // one-job epochs (the dispatch loop runs a host page for its first
  // demander only), whose job carries the host replica.
  if (options_.cpu_assist_fraction > 0.0) {
    const Status st = SetupCpuAssist(admitted.front()->kernel);
    if (!st.ok()) {
      admitted.front()->status = st;
      admitted.front()->finished = true;
      ReleaseBatchBuffers(admitted);
      return Status::OK();
    }
  }

  // Shared page cache: exists when cache_bytes is not 0 and any admitted
  // job qualifies (RA-free traversal kernel). Full scans touch every page
  // once, so a cache cannot help them and the paper disables it (Section
  // 3.3); cached topology bytes are job-agnostic and serve every
  // demander.
  bool any_cache = false;
  for (JobExec* job : admitted) {
    any_cache |= job->kernel->access_pattern() == AccessPattern::kTraversal &&
                 job->kernel->ra_bytes_per_vertex() == 0;
  }
  if (any_cache && options_.cache_bytes != 0) SetupCaches();

  // Epoch-start clears (one epoch = one schedule).
  recorder_.Clear();
  store_->ResetStats();
  io_->ResetStats();
  pin_events_.Clear();
  if (race_ != nullptr) race_->BeginRun();

  // Safe point: the epoch opens on a freshly published graph version
  // (its priced delta/rewrite writes land in this epoch's schedule), and
  // the degree table follows the publish epoch. A job that pins its
  // graph version pins the epoch for every concurrent job -- they share
  // the staged pages, so per-job versions inside one pass cannot
  // diverge.
  PublishIngest();
  if (any_traversal && CountFrontier()) BuildDegreeTable();
  bool pin_version = false;
  for (JobExec* job : admitted) {
    pin_version |= job->options.pin_graph_version;
  }

  // Ops are tagged per job only when jobs share the epoch.
  const bool tag_jobs = admitted.size() > 1;
  int32_t next_job_id = 0;
  for (JobExec* job : admitted) {
    job->job_id = tag_jobs ? next_job_id++ : -1;
    if (job->traversal()) {
      job->frontier = std::make_unique<PidSet>(graph_->num_pages());
      if (CountFrontier()) job->frontier->EnableCounting();
      // Seed with the source's out-degree: level 0 expands exactly the
      // source, so the page's active-edge count is its degree.
      job->frontier->Set(
          graph_->PageOfVertex(job->options.source),
          out_degrees_.empty() ? 1 : out_degrees_[job->options.source]);
    }
    UploadWaJob(job);
  }

  // The pass loop (Algorithm 1): each iteration retires finished jobs at
  // the boundary, then streams the union of the survivors' page demand.
  std::vector<JobExec*> running = admitted;
  bool first_pass = true;
  for (;;) {
    // Level boundaries are the cancellation points. A completed job
    // retires first (a finished traversal, or a scan or explicit pass
    // that streamed its one pass), then cancellation and the per-job
    // streamed-bytes quota (completed levels are not rolled back).
    std::vector<JobExec*> survivors;
    for (JobExec* job : running) {
      const int job_max = job->options.max_levels_override >= 0
                              ? job->options.max_levels_override
                              : options_.max_levels;
      if (job->traversal() ? job->frontier->Empty() || job->level >= job_max
                           : job->participated) {
        FinishJobInEpoch(job);
      } else if (job->cancel.load(std::memory_order_relaxed)) {
        job->status = Status::Cancelled("job cancelled at level boundary");
        FinishJobInEpoch(job);
      } else if (job->options.max_streamed_bytes > 0 &&
                 job->metrics.transfer_bytes >=
                     job->options.max_streamed_bytes) {
        registry_->GetCounter("jobs.quota_deferrals").Add();
        job->status = Status::ResourceExhausted(
            "job hit max_streamed_bytes: " +
            std::to_string(job->metrics.transfer_bytes) +
            " B streamed, quota " +
            std::to_string(job->options.max_streamed_bytes) + " B");
        FinishJobInEpoch(job);
      } else {
        survivors.push_back(job);
      }
    }
    running = std::move(survivors);
    if (running.empty()) break;
    // Ownership for the pass: job i of R belongs to worker i * W / R on
    // every GPU, so each job's WA replicas, local nextPIDSets and stream
    // work keep one writer. The drain at the end of the pass hands the
    // jobs over.
    for (size_t i = 0; i < running.size(); ++i) {
      running[i]->worker = static_cast<int>(
          i * static_cast<size_t>(workers_per_gpu_) / running.size());
    }

    // Mid-epoch safe point, taken only when another pass follows: fold
    // newly appended ingest updates in unless a job pinned the epoch's
    // graph version (the first pass follows the epoch-start publish).
    if (!first_pass && !pin_version) {
      PublishIngest();
      if (any_traversal && CountFrontier()) BuildDegreeTable();
    }
    first_pass = false;

    const std::vector<PageId> ordered = PlanPass(running);
    size_t max_launches = 0;
    for (PageId pid : ordered) max_launches += demand_[pid].size();
    launches_.clear();
    launches_.reserve(max_launches *
                      static_cast<size_t>(replicate_ ? machine_.num_gpus : 1));
    Status pass_status = ProcessPagesBatch(ordered);
    DrainWorkers();
    for (PageId pid : ordered) demand_[pid].clear();
    if (!pass_status.ok()) {
      for (JobExec* job : running) {
        job->status = pass_status;
        job->finished = true;
        job->replicas.clear();
      }
      break;
    }
    if (std::none_of(running.begin(), running.end(),
                     [](const JobExec* job) { return job->traversal(); })) {
      continue;
    }

    // Per-level sync, job by job in admission order, then one host merge
    // + barrier for the pass. The level boundary is a BSP barrier for the
    // race detector: the drain above orders every kernel of this
    // level before the host-side frontier/WA merge (the simulated D2H
    // ops may still overlap kernels in the timeline, but their payload
    // is only read here), and its release lets the next level's kernels
    // see everything the host merged.
    if (race_ != nullptr) race_->BarrierAcquire();
    for (JobExec* job : running) {
      if (job->traversal()) SyncJobLevel(job);
    }
    gpu::TimelineOp merge;
    merge.kind = gpu::OpKind::kHostCompute;
    merge.duration = tm.host_merge_overhead;
    RecordOp(merge);
    recorder_.AddBarrier(tm.sync_overhead);
    if (race_ != nullptr) race_->BarrierRelease();
    for (JobExec* job : running) {
      if (job->traversal()) ++job->level;
    }
  }

  // No worker spins between runs.
  for (auto& gpu : gpus_) {
    for (auto& worker : gpu->workers) worker->Park();
  }
  FinalizeBatchEpoch(jobs);
  return Status::OK();
}

void GtsEngine::FinalizeBatchEpoch(const std::vector<JobExec*>& jobs) {
  GTS_PROF_SCOPE("engine.finalize_run");
  gpu::ScheduleResult schedule =
      gpu::ScheduleSimulator(machine_.time_model).Run(recorder_.TakeOps());

  // gts::analysis: harvest the race detector and replay the schedule
  // through the invariant validator (J1 only sees tagged ops, so a
  // one-job epoch adds no checks for it).
  analysis::RaceReport report;
  if (race_ != nullptr) {
    race_->ResolveTimestamps(schedule);
    report.Accumulate(race_->TakeReport());
  }
  if (options_.analysis.validate_schedule) {
    analysis::ScheduleValidator validator(
        analysis::ValidatorOptions{1e-12, options_.analysis.max_reported});
    validator.Check(schedule, &report);
    validator.CheckPinEvents(pin_events_.Take(), &report);
    validator.CheckJobIsolation(schedule, &report);
  }
  registry_->GetCounter("analysis.races").Add(report.races_detected);
  registry_->GetCounter("analysis.wa_accesses").Add(report.wa_accesses);
  registry_->GetCounter("analysis.schedule_checks")
      .Add(report.schedule_checks);
  registry_->GetCounter("analysis.schedule_violations")
      .Add(report.violations_detected);
#if GTS_SYNC_CHECK_ENABLED
  {
    // Lock-order findings accrued since the previous harvest (the
    // registry is process-global; per-epoch attribution is by drain
    // window, same as TakeRunStats below).
    auto drain = analysis::sync::LockRegistry::Global().TakeViolations();
    report.sync_check_ran = true;
    report.lock_acquisitions += drain.acquisitions;
    report.lock_order_violations += drain.violations_detected;
    for (auto& v : drain.violations) {
      if (report.lock_violations.size() < options_.analysis.max_reported) {
        report.lock_violations.push_back(std::move(v));
      }
    }
    registry_->GetCounter("analysis.lock_acquisitions")
        .Add(drain.acquisitions);
    registry_->GetCounter("analysis.lock_order_violations")
        .Add(drain.violations_detected);
  }
#endif

  // Ingest stats are epoch-cumulative like the shared io counters:
  // per-job attribution of a merged publish would be arbitrary, so
  // every finished job carries the epoch's harvest (the publishes this
  // epoch triggered, plus any publish or quiesce that ran since the
  // previous harvest).
  ingest::IngestStats epoch_ingest;
  if (ingest_ != nullptr) epoch_ingest = ingest_->TakeRunStats();

  std::string escalation;
  if (options_.analysis.fail_on_violation && report.violations_detected > 0) {
    escalation = "schedule validation failed:\n";
  } else if (options_.analysis.fail_on_race && report.races_detected > 0) {
    escalation = "logical races detected:\n";
  } else if (options_.analysis.fail_on_lock_violation &&
             report.lock_order_violations > 0) {
    escalation = "lock-order violations detected:\n";
  }
  for (JobExec* job : jobs) {
    if (!job->admitted || !job->finished || !job->status.ok()) continue;
    // Every job of the epoch shares its schedule: sim_seconds is the
    // epoch makespan (a serving-latency view -- the job was done when
    // the batch was), and the busy breakdown is epoch-wide.
    RunMetrics& m = job->metrics;
    m.sim_seconds = schedule.makespan;
    m.transfer_busy = schedule.BusySeconds(gpu::ResourceId::Type::kCopyEngine);
    m.kernel_busy = schedule.BusySeconds(gpu::ResourceId::Type::kKernelPool);
    m.storage_busy =
        schedule.BusySeconds(gpu::ResourceId::Type::kStorageDevice);
    m.ingest_updates_applied = epoch_ingest.updates_applied;
    m.ingest_deltas_flushed = epoch_ingest.deltas_flushed;
    m.ingest_compactions = epoch_ingest.compactions;
    m.ingest_overlay_hits = epoch_ingest.overlay_hits;
    m.analysis = report;
    if (options_.keep_timeline) m.timeline = schedule;
    PublishMetrics(m);
    if (!escalation.empty()) {
      job->status = Status::Internal(escalation + report.ToString());
    }
  }
  ReleaseBatchBuffers(jobs);
}

void GtsEngine::PublishMetrics(const RunMetrics& metrics) {
  // Engine-level aggregates only: cache and storage counters are bumped
  // at their source (PageCache / PageStore / StorageDevice handles), so
  // publishing them again here would double-count.
  registry_->GetCounter("engine.runs").Add();
  registry_->GetCounter("engine.levels").Add(
      static_cast<uint64_t>(metrics.levels));
  registry_->GetCounter("engine.pages_streamed").Add(metrics.pages_streamed);
  registry_->GetCounter("engine.cpu_pages").Add(metrics.cpu_pages);
  registry_->GetCounter("engine.sp_kernel_calls").Add(metrics.sp_kernel_calls);
  registry_->GetCounter("engine.lp_kernel_calls").Add(metrics.lp_kernel_calls);
  registry_->GetGauge("engine.last_transfer_busy_seconds")
      .Set(metrics.transfer_busy);
  registry_->GetGauge("engine.last_kernel_busy_seconds")
      .Set(metrics.kernel_busy);
  registry_->GetGauge("engine.last_storage_busy_seconds")
      .Set(metrics.storage_busy);
  registry_->GetDistribution("engine.sim_seconds").Record(metrics.sim_seconds);
}

}  // namespace gts
