#include "core/engine.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <string>
#include <utility>

#include "common/logging.h"
#include "core/dispatch/dispatch_pipeline.h"
#include "core/dispatch/ready_queue.h"
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
  if (max_concurrent_jobs > 1) {
    if (!dispatch.work_stealing && !use_stream_threads) {
      return Status::InvalidArgument(
          "max_concurrent_jobs " + std::to_string(max_concurrent_jobs) +
          " needs an asynchronous dispatch path: set use_stream_threads = "
          "true (worker streams) or dispatch.work_stealing = true (pull "
          "dispatch), or keep max_concurrent_jobs = 1 to run one job per "
          "epoch");
    }
    if (cpu_assist_fraction > 0.0) {
      return Status::InvalidArgument(
          "concurrent jobs do not compose with the host co-processing "
          "extension; set cpu_assist_fraction = 0 or max_concurrent_jobs "
          "= 1");
    }
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
  if (dispatch.steal_batch < 1) {
    return Status::InvalidArgument("dispatch.steal_batch must be >= 1, got " +
                                   std::to_string(dispatch.steal_batch));
  }
  GTS_RETURN_IF_ERROR(io.Validate());
  GTS_RETURN_IF_ERROR(ingest.Validate());
  // The partition stage must agree with the strategy's WA layout on
  // multi-GPU machines (with one GPU every kind degrades to striping and
  // any combination is fine). Strategy-S partitions scan WA, so every GPU
  // must see every page: a partitioned stream would drop the updates
  // owned by the other GPUs. Strategy-P replicates WA, so a replicated
  // stream would apply every scan update num_gpus times.
  if (machine.num_gpus > 1) {
    if (strategy == Strategy::kScalability &&
        (dispatch.partition == GpuPartitionKind::kRoundRobin ||
         dispatch.partition == GpuPartitionKind::kDegreeBalanced)) {
      return Status::InvalidArgument(
          "Strategy-S partitions WA across GPUs and needs the replicated "
          "page stream; dispatch.partition " +
          std::string(GpuPartitionKindName(dispatch.partition)) +
          " would drop cross-partition updates");
    }
    if (strategy == Strategy::kPerformance &&
        dispatch.partition == GpuPartitionKind::kReplicate) {
      return Status::InvalidArgument(
          "Strategy-P replicates WA on every GPU; a replicated page stream "
          "(dispatch.partition replicate) would double-count scan updates");
    }
  }
  return Status::OK();
}

namespace {
/// Encodes (gpu, stream) into a ScheduleSimulator stream key.
int StreamKey(int gpu, int stream) {
  return gpu * GtsOptions::kMaxStreamsPerGpu + stream;
}

// A Strategy-S GPU whose chunk starts past the last vertex owns an empty
// WA slice with no buffer behind it; the kernel hooks skip it.
void InitSliceWa(const GtsKernel* kernel, JobGpuSlice& slice) {
  if (slice.wa_begin == slice.wa_end) return;
  kernel->InitDeviceWa(slice.wa_buf.data(), slice.wa_begin, slice.wa_end);
}

void AbsorbSliceWa(GtsKernel* kernel, const JobGpuSlice& slice) {
  if (slice.wa_begin == slice.wa_end) return;
  kernel->AbsorbDeviceWa(slice.wa_buf.data(), slice.wa_begin, slice.wa_end);
}
}  // namespace

/// Per-GPU state shared by every job of an epoch. Each job's WA slice,
/// frontier contribution and per-stream work live in its JobGpuSlice.
struct GtsEngine::GpuState {
  std::unique_ptr<gpu::Device> device;
  std::vector<std::unique_ptr<gpu::Stream>> streams;  // empty when inline
  std::vector<gpu::DeviceBuffer> sp_buf;  // one per stream
  std::vector<gpu::DeviceBuffer> lp_buf;
  std::vector<gpu::DeviceBuffer> ra_buf;
  std::vector<int> stream_last_kind;  // -1 until a kernel ran on the stream
  std::unique_ptr<PageCache> cache;
  int rr = 0;  // round-robin stream cursor
};

/// Host-CPU co-processing state (Section 9 future-work extension).
struct GtsEngine::CpuState {
  std::vector<uint8_t> wa;             // full host-side WA replica
  std::unique_ptr<PidSet> local_next;  // traversal frontier contribution
  std::vector<WorkStats> lane_work;    // per CPU worker lane
  int rr = 0;
};

/// One job's kernel launch against a staged or cached page: recorded in
/// the host phase, executed by the page's closure.
struct GtsEngine::JobLaunch {
  JobExec* job = nullptr;
  gpu::OpIndex kidx = gpu::kNoOp;
  const uint8_t* ra_src = nullptr;  // host RA subvector
  uint64_t ra_bytes = 0;
  VertexId ra_start_vid = 0;
};

GtsEngine::GtsEngine(const PagedGraph* graph, PageStore* store,
                     MachineConfig machine, GtsOptions options)
    : graph_(graph),
      store_(store),
      machine_(machine),
      options_(options),
      registry_(std::make_shared<obs::MetricsRegistry>()) {
  const Status valid = options_.Validate(machine_);
  GTS_CHECK(valid.ok()) << valid.ToString();
  store_->BindMetrics(registry_);
  pipeline_ = std::make_unique<DispatchPipeline>(
      options_.dispatch, options_.strategy == Strategy::kScalability,
      machine_.num_gpus, registry_.get());
  io_ = std::make_unique<io::IoEngine>(
      graph_, store_, options_.io,
      [this](const gpu::TimelineOp& op) { return RecordOp(op); },
      registry_.get());
  io_->BindEventLog(&io_events_);
  {
    transfer::TransferBackend::Env tenv;
    tenv.graph = graph_;
    tenv.io = io_.get();
    tenv.time_model = &machine_.time_model;
    tenv.record = [this](const gpu::TimelineOp& op) { return RecordOp(op); };
    tenv.will_demand = [this](PageId pid) {
      const PageRoute route = RoutePage(pid);
      if (route.cpu) return true;  // the CPU path has no page cache
      for (int g = route.first_gpu; g <= route.last_gpu; ++g) {
        const auto& cache = gpus_[g]->cache;
        if (cache == nullptr || !cache->Contains(pid)) return true;
      }
      return false;
    };
    tenv.registry = registry_.get();
    transfer_ = transfer::MakeTransferBackend(options_.transfer,
                                              std::move(tenv));
  }
  if (options_.ingest.enabled) {
    ingest::EdgeStream::Env env;
    env.graph = graph_;
    env.options = options_.ingest;
    env.registry = registry_.get();
    env.num_devices = static_cast<int>(store_->num_devices());
    env.device_of_page = [this](PageId pid) {
      return static_cast<int>(store_->DeviceOfPage(pid));
    };
    // Delta records append past the base pages AND past the WA-snapshot
    // spill region (DownloadWa checkpoints from DevicePageBytes(d) up),
    // so the journal never overwrites a checkpoint. The reserve bounds
    // the snapshot at 32 WA bytes/vertex for every GPU round-robined
    // onto the device.
    const uint64_t n_dev = store_->num_devices();
    const uint64_t snapshot_reserve =
        graph_->num_vertices() * uint64_t{32} *
        ((static_cast<uint64_t>(machine_.num_gpus) + n_dev - 1) / n_dev);
    env.delta_region_base = [this, snapshot_reserve](int d) {
      return store_->DevicePageBytes(static_cast<size_t>(d)) +
             snapshot_reserve;
    };
    env.write_delta = [this](int device, uint64_t offset,
                             const uint8_t* data, uint64_t length) {
      auto wrote = io_->Write(static_cast<size_t>(device), offset, data,
                              length, gpu::kNoOp);
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
  if (options_.dispatch.min_active_edges > 0) {
    // Touch the counter up front so snapshot keys don't depend on whether
    // a run actually skipped anything.
    registry_->GetCounter("dispatch.skipped_pages");
  }
  obs::Counter& stream_ops = registry_->GetCounter("gpu.stream_ops");
  for (int g = 0; g < machine_.num_gpus; ++g) {
    auto state = std::make_unique<GpuState>();
    state->device = std::make_unique<gpu::Device>(g, machine_.device_memory);
    if (options_.use_stream_threads) {
      for (int s = 0; s < options_.num_streams; ++s) {
        auto stream = std::make_unique<gpu::Stream>();
        stream->BindOpsCounter(&stream_ops);
        state->streams.push_back(std::move(stream));
      }
    }
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
  return pipeline_->needs_frontier_counts() ||
         options_.dispatch.min_active_edges > 0 ||
         options_.transfer.mode != transfer::TransferMode::kPageStream;
}

uint32_t GtsEngine::EffectiveMinActiveEdges(
    const PidSet& frontier, const std::vector<PageId>& front_pages) {
  const uint32_t min_edges = options_.dispatch.min_active_edges;
  if (min_edges != DispatchOptions::kAutoMinActiveEdges) return min_edges;
  if (!frontier.counting() || front_pages.empty()) return 1;
  // Adaptive cut: skip only the near-empty tail of the level's
  // active-edge distribution -- pages holding under 1/64 of the mean
  // active edges per frontier page. A dense, uniform level (every page
  // near the mean) degrades to the exact threshold 1; a skewed level
  // sheds the long tail of barely-touched pages that would each cost a
  // stream slot for a handful of expansions. Deterministic: depends
  // only on the frontier counts, never on thread timing.
  uint64_t total = 0;
  for (PageId pid : front_pages) total += frontier.CountOf(pid);
  const uint64_t mean = total / front_pages.size();
  const uint32_t threshold =
      static_cast<uint32_t>(std::max<uint64_t>(1, mean / 64));
  registry_->GetDistribution("dispatch.auto_min_active_edges")
      .Record(static_cast<double>(threshold));
  return threshold;
}

void GtsEngine::BuildDegreeTable() {
  if (graph_->num_vertices() == 0) return;
  // Rebuilt only on first use and -- with ingestion enabled -- whenever
  // the publish epoch moved since the last build: streamed inserts and
  // deletes change degrees, and a stale table would mis-weight frontier
  // counts (and the min_active_edges admission cut).
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
  // with the fresh chain overlaid. Entries still pinned by an in-flight
  // kernel turn stale (old bytes live until the pin drops) -- but at a
  // safe point SynchronizeStreams has already drained the workers, so
  // pins here would be engine bugs that rule I1 flags.
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
  // is active, so no page cache exists (caches live only inside a run's
  // buffer setup) and nothing holds staged bytes -- the changed set
  // needs no invalidation.
  (void)ingest_->Quiesce();
  return Status::OK();
}

void GtsEngine::ReleaseBuffers() {
  for (auto& gpu : gpus_) {
    gpu->sp_buf.clear();
    gpu->lp_buf.clear();
    gpu->ra_buf.clear();
    gpu->cache.reset();
  }
  cpu_.reset();
}

bool GtsEngine::AssignToCpu(PageId pid) const {
  if (cpu_ == nullptr) return false;
  // Deterministic multiplicative hash of the page id.
  const uint32_t h = static_cast<uint32_t>(pid) * 2654435761u;
  return static_cast<double>(h >> 8 & 0xFFFFFF) / 16777216.0 <
         options_.cpu_assist_fraction;
}

gpu::OpIndex GtsEngine::RecordOp(gpu::TimelineOp op) {
  analysis::sync::Lock lock(record_mu_);
  return recorder_.Add(op);
}

void GtsEngine::PatchKernelDuration(gpu::OpIndex idx, SimTime duration) {
  analysis::sync::Lock lock(record_mu_);
  // Safe: Add() only appends, and idx was returned by a previous Add.
  // Adds on top of any switch overhead recorded at issue time.
  recorder_.op(idx).duration += duration;
}

void GtsEngine::NoteWaReplica(const JobExec& job, int g, int lane,
                              analysis::AccessClass cls, gpu::OpIndex op) {
  if (race_ == nullptr) return;
  if (g == kHostReplica) {
    race_->OnWaAccess(lane, analysis::RaceDetector::kCpuWaDomain, 0,
                      static_cast<uint32_t>(cpu_->wa.size()), cls, op,
                      kInvalidPageId);
    return;
  }
  const JobGpuSlice& slice = job.gpus[static_cast<size_t>(g)];
  const uint64_t bytes = static_cast<uint64_t>(slice.wa_end - slice.wa_begin) *
                         job.kernel->wa_bytes_per_vertex();
  race_->OnWaAccess(lane, analysis::RaceDetector::WaDomain(g, job.job_id), 0,
                    static_cast<uint32_t>(bytes), cls, op, kInvalidPageId);
}

Status GtsEngine::ProcessPageOnCpu(JobExec* job, PageId pid) {
  GtsKernel* kernel = job->kernel;
  const PageKind kind = graph_->kind(pid);
  const TimeModel& tm = machine_.time_model;
  const uint32_t ra_b = kernel->ra_bytes_per_vertex();
  const uint8_t* host_ra = kernel->host_ra();

  GTS_ASSIGN_OR_RETURN(io::IoEngine::Fetched fetch, io_->Acquire(pid));
  const gpu::OpIndex fetch_dep = fetch.fetch_op;

  const int lane = cpu_->rr;
  cpu_->rr = (cpu_->rr + 1) % tm.cpu_worker_threads;

  // Recorded before execution (duration patched in afterwards, like the
  // GPU path) so the op index exists for race-site attribution. Trace
  // order is unchanged: nothing else records between the two calls on
  // this thread, and stream workers only patch.
  gpu::TimelineOp kop;
  kop.kind = gpu::OpKind::kKernel;
  kop.stream_key = (1 << 20) + lane;  // dedicated CPU lanes
  kop.resource = {gpu::ResourceId::Type::kHostCpuPool, 0};
  kop.dep0 = fetch_dep;
  kop.page = pid;
  kop.duration = 0.0;
  kop.job = job->job_id;
  const gpu::OpIndex kidx = RecordOp(kop);

  KernelContext ctx;
  ctx.rvt = &graph_->rvt();
  ctx.wa = cpu_->wa.data();
  ctx.wa_begin = 0;
  ctx.wa_end = graph_->num_vertices();
  const VertexId start_vid = graph_->rvt().entry(pid).start_vid;
  ctx.ra = ra_b > 0 && host_ra != nullptr
               ? host_ra + static_cast<uint64_t>(start_vid) * ra_b
               : nullptr;
  ctx.ra_start_vid = start_vid;
  ctx.cur_level = job->cur_level();
  ctx.next_pid_set = cpu_->local_next.get();
  if (cpu_->local_next != nullptr && cpu_->local_next->counting()) {
    ctx.out_degrees = out_degrees_.data();
  }
  ctx.micro = options_.micro;
  // CPU pages run on the driver thread in both dispatch modes, and only
  // the driver touches the host replica.
  ctx.serial = true;

  if (race_ != nullptr) {
    if (!fetch.buffer_hit) {
      race_->OnPageStaged(static_cast<int>(fetch.device_index), pid,
                          fetch.fetch_op);
    }
    race_->OnPageDelivered(pid);
    const int cl = race_->CpuLane(lane, (1 << 20) + lane);
    race_->BeginOp(cl);
    race_->Join(cl, race_->HostLane());
    // The CPU lane reads the page straight out of MMBuf.
    race_->OnPageAccess(cl, analysis::RaceDetector::kMmbufDomain, pid,
                        /*write=*/false, kidx);
    ctx.race_site = {race_.get(), cl, analysis::RaceDetector::kCpuWaDomain,
                     kidx, pid};
  }

  // Streaming ingestion: the MMBuf bytes are the installed base image;
  // pending deltas are overlaid onto a host-local copy (the shared MMBuf
  // copy stays untouched -- every consumer overlays its own staging).
  const uint8_t* page_data = fetch.data;
  std::vector<uint8_t> patched;
  if (ingest_ != nullptr && ingest_->HasDeltas(pid)) {
    patched.assign(fetch.data, fetch.data + graph_->config().page_size);
    (void)ingest_->Overlay(pid, patched.data());
    page_data = patched.data();
  }

  PageView view(page_data, graph_->config());
  const WorkStats work = kind == PageKind::kSmall ? kernel->RunSp(view, ctx)
                                                  : kernel->RunLp(view, ctx);
  cpu_->lane_work[lane] += work;

  // One worker core: no warp parallelism, no coalescing, but no PCI-E.
  PatchKernelDuration(
      kidx,
      static_cast<double>(work.warp_cycles) * tm.warp_cycle_seconds *
          tm.cpu_cycle_multiplier +
      static_cast<double>(work.mem_transactions) *
          kernel->seconds_per_mem_transaction(tm) * tm.cpu_mem_multiplier);

  ++job->metrics.cpu_pages;
  if (kind == PageKind::kSmall) {
    ++job->metrics.sp_kernel_calls;
  } else {
    ++job->metrics.lp_kernel_calls;
  }
  return Status::OK();
}

void GtsEngine::SynchronizeStreams() {
  if (!options_.use_stream_threads) return;
  for (auto& gpu : gpus_) {
    for (auto& stream : gpu->streams) stream->Synchronize();
  }
}

std::vector<PageId> GtsEngine::PlanPass(std::vector<PageId> sps,
                                        std::vector<PageId> lps,
                                        const PidSet* frontier) {
  PageOrderContext ctx;
  // Cache residency is queried lazily inside Order() -- after BeginPass
  // has planned the partition -- so cache-affinity composes with
  // degree-balanced assignment. Contains() touches no cache statistics.
  bool any_cache = false;
  for (const auto& gpu : gpus_) any_cache |= gpu->cache != nullptr;
  if (any_cache) {
    ctx.is_cached = [this](PageId pid) {
      const int g = pipeline_->replicates() ? 0 : pipeline_->AssignGpu(pid);
      const auto& cache = gpus_[g]->cache;
      return cache != nullptr && cache->Contains(pid);
    };
  }
  if (frontier != nullptr && frontier->counting()) {
    ctx.frontier_count = [frontier](PageId pid) {
      return frontier->CountOf(pid);
    };
  }
  std::vector<PageId> ordered =
      pipeline_->PlanPass(std::move(sps), std::move(lps), *graph_, ctx);

  // The transfer backend turns the ordered list into the storage demand
  // sequence (pages that will actually reach Acquire) and primes the io
  // prefetcher, then resolves the pass's transfer mode (page-stream vs
  // direct; see src/transfer/). The demand filter runs through the
  // Env::will_demand closure -- RoutePage + cache Contains, the same
  // routing the dispatch loops use -- so the plan cannot drift from the
  // actual routing.
  transfer::PassInfo pass_info;
  pass_info.ordered = &ordered;
  pass_info.frontier = frontier;
  transfer_->BeginPass(pass_info);
  return ordered;
}

GtsEngine::PageRoute GtsEngine::RoutePage(PageId pid) const {
  PageRoute route;
  if (!pipeline_->replicates() && AssignToCpu(pid)) {
    route.cpu = true;
    return route;  // last_gpu stays below first_gpu: no GPU leg
  }
  route.first_gpu = pipeline_->replicates() ? 0 : pipeline_->AssignGpu(pid);
  route.last_gpu =
      pipeline_->replicates() ? machine_.num_gpus - 1 : route.first_gpu;
  return route;
}

Result<RunMetrics> GtsEngine::Run(GtsKernel* kernel, VertexId source,
                                  int max_levels_override) {
  // Thin shim over the scheduler: the job runs as a batch epoch of one.
  JobOptions options;
  options.source = source;
  options.max_levels_override = max_levels_override;
  JobHandle handle = scheduler_->Submit(kernel, options);
  GTS_ASSIGN_OR_RETURN(RunReport report, handle.Wait());
  return report.metrics;
}

Result<RunMetrics> GtsEngine::RunPass(GtsKernel* kernel,
                                      const std::vector<PageId>& pages,
                                      uint32_t level) {
  JobHandle handle = scheduler_->SubmitPass(kernel, pages, level);
  GTS_ASSIGN_OR_RETURN(RunReport report, handle.Wait());
  return report.metrics;
}

// ---------------------------------------------------------------------------
// Batch epochs: the engine's one run path. Every JobScheduler batch --
// a single submission is a batch of one -- runs as an epoch in which the
// admitted jobs share the streaming machinery (page cache, io queues,
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
  job->gpus.clear();
  job->gpus.resize(static_cast<size_t>(machine_.num_gpus));
  for (int g = 0; g < machine_.num_gpus; ++g) {
    JobGpuSlice& slice = job->gpus[static_cast<size_t>(g)];
    WaRange(g, tkernel, &slice.wa_begin, &slice.wa_end);
    const uint64_t wa_bytes =
        static_cast<uint64_t>(slice.wa_end - slice.wa_begin) * wa_b;
    auto buf = gpus_[g]->device->Allocate(
        wa_bytes, "WABuf[job" + std::to_string(slot) + "]");
    if (!buf.ok()) {
      // Admission-control signal: release the partial allocation so the
      // next candidate (or the next epoch) sees the memory back.
      job->gpus.clear();
      return buf.status();
    }
    slice.wa_buf = std::move(buf).value();
    if (tkernel) {
      slice.local_next = std::make_unique<PidSet>(graph_->num_pages());
      if (CountFrontier()) slice.local_next->EnableCounting();
    }
    slice.stream_work.assign(static_cast<size_t>(options_.num_streams),
                             WorkStats{});
  }
  return Status::OK();
}

Status GtsEngine::SetupSharedStreamBuffers(uint32_t max_ra_b) {
  const uint64_t page_size = graph_->config().page_size;
  for (int g = 0; g < machine_.num_gpus; ++g) {
    GpuState& gpu = *gpus_[g];
    for (int s = 0; s < options_.num_streams; ++s) {
      GTS_ASSIGN_OR_RETURN(
          gpu::DeviceBuffer sp,
          gpu.device->Allocate(page_size, "SPBuf[" + std::to_string(s) + "]"));
      gpu.sp_buf.push_back(std::move(sp));
      GTS_ASSIGN_OR_RETURN(
          gpu::DeviceBuffer lp,
          gpu.device->Allocate(page_size, "LPBuf[" + std::to_string(s) + "]"));
      gpu.lp_buf.push_back(std::move(lp));
      if (max_ra_b > 0) {
        // Sized for the largest admitted RA record: one shared RABuf set
        // serves every job of the epoch.
        GTS_ASSIGN_OR_RETURN(
            gpu::DeviceBuffer ra,
            gpu.device->Allocate(
                static_cast<uint64_t>(max_slots_per_page_) * max_ra_b,
                "RABuf[" + std::to_string(s) + "]"));
        gpu.ra_buf.push_back(std::move(ra));
      }
    }
    gpu.stream_last_kind.assign(static_cast<size_t>(options_.num_streams), -1);
    gpu.rr = 0;
  }
  return Status::OK();
}

Status GtsEngine::SetupCpuAssist(const GtsKernel* kernel) {
  const bool traversal = kernel->access_pattern() == AccessPattern::kTraversal;
  if (options_.strategy == Strategy::kScalability && machine_.num_gpus > 1 &&
      !traversal) {
    return Status::FailedPrecondition(
        "CPU co-processing needs Strategy-P (Strategy-S replicates the "
        "whole stream to every processor already)");
  }
  cpu_ = std::make_unique<CpuState>();
  cpu_->wa.resize(static_cast<uint64_t>(graph_->num_vertices()) *
                  kernel->wa_bytes_per_vertex());
  if (traversal) {
    cpu_->local_next = std::make_unique<PidSet>(graph_->num_pages());
    if (CountFrontier()) cpu_->local_next->EnableCounting();
  }
  // The lane cursor starts every epoch at 0 (like the GPU stream cursor),
  // so two identical runs produce identical per-lane WorkStats.
  cpu_->lane_work.assign(
      static_cast<size_t>(machine_.time_model.cpu_worker_threads),
      WorkStats{});
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
    gpu.cache = std::make_unique<PageCache>(
        gpu.device.get(), cache_bytes, page_size, options_.cache_policy,
        registry_.get(), "cache.gpu" + std::to_string(g));
    gpu.cache->BindPinLog(&pin_events_);
  }
}

void GtsEngine::ReleaseBatchBuffers(const std::vector<JobExec*>& jobs) {
  for (JobExec* job : jobs) job->gpus.clear();
  ReleaseBuffers();
}

void GtsEngine::UploadWaJob(JobExec* job) {
  const TimeModel& tm = machine_.time_model;
  GtsKernel* kernel = job->kernel;
  const uint32_t wa_b = kernel->wa_bytes_per_vertex();
  if (cpu_ != nullptr) {
    kernel->InitDeviceWa(cpu_->wa.data(), 0, graph_->num_vertices());
    if (race_ != nullptr) {
      NoteWaReplica(*job, kHostReplica, race_->HostLane(),
                    analysis::AccessClass::kPlainWrite, gpu::kNoOp);
    }
  }
  for (int g = 0; g < machine_.num_gpus; ++g) {
    JobGpuSlice& slice = job->gpus[static_cast<size_t>(g)];
    const uint64_t bytes =
        static_cast<uint64_t>(slice.wa_end - slice.wa_begin) * wa_b;
    gpu::TimelineOp op;
    op.kind = gpu::OpKind::kH2DChunk;
    op.stream_key = StreamKey(g, 0);
    op.resource = {gpu::ResourceId::Type::kCopyEngine, g};
    op.duration = static_cast<double>(bytes) / tm.c1;
    op.bytes = bytes;
    op.job = job->job_id;
    const gpu::OpIndex op_idx = RecordOp(op);
    InitSliceWa(kernel, slice);
    if (race_ != nullptr) {
      // The WA upload is the copy engine writing WABuf. Every level-0
      // kernel has its page H2D serialized after this chunk on the same
      // copy engine, so fusing the copy lane with stream 0 here and with
      // each page's stream at its H2DStream (StreamPageToGpuBatch)
      // carries the upload->kernel happens-before edge without a global
      // barrier.
      const int copy = race_->CopyLane(g);
      race_->Join(copy, race_->HostLane());
      race_->BeginOp(copy);
      NoteWaReplica(*job, g, copy, analysis::AccessClass::kPlainWrite,
                    op_idx);
      race_->Fuse(copy, race_->StreamLane(g, 0, StreamKey(g, 0)));
    }
  }
}

void GtsEngine::DownloadWaJob(JobExec* job) {
  const TimeModel& tm = machine_.time_model;
  GtsKernel* kernel = job->kernel;
  const uint32_t wa_b = kernel->wa_bytes_per_vertex();
  const int n_gpus = machine_.num_gpus;

  // WA sync happens after the whole pass completes (Step 3/4, Figure 5):
  // the job's final WA state exists only after every in-flight kernel of
  // the pass retired.
  {
    analysis::sync::Lock lock(record_mu_);
    recorder_.AddBarrier(0.0);
  }
  // The download is barrier-ordered: its ops are recorded after the
  // AddBarrier above, so every kernel of the pass happens-before the
  // host-side absorb.
  if (race_ != nullptr) race_->BarrierAcquire();

  std::vector<gpu::OpIndex> d2h_idx(static_cast<size_t>(n_gpus), gpu::kNoOp);
  if (options_.strategy == Strategy::kPerformance && n_gpus > 1) {
    // Peer-to-peer merge into the master GPU, then one D2H (Section 4.1).
    const uint64_t bytes =
        static_cast<uint64_t>(graph_->num_vertices()) * wa_b;
    for (int g = 1; g < n_gpus; ++g) {
      gpu::TimelineOp p2p;
      p2p.kind = gpu::OpKind::kP2P;
      // Lands on the master GPU's copy engine.
      p2p.resource = {gpu::ResourceId::Type::kCopyEngine, 0};
      p2p.duration = static_cast<double>(bytes) / tm.p2p_bandwidth;
      p2p.bytes = bytes;
      p2p.job = job->job_id;
      RecordOp(p2p);
    }
    gpu::TimelineOp d2h;
    d2h.kind = gpu::OpKind::kD2H;
    d2h.resource = {gpu::ResourceId::Type::kCopyEngine, 0};
    d2h.duration = static_cast<double>(bytes) / tm.c1;
    d2h.bytes = bytes;
    d2h.job = job->job_id;
    const gpu::OpIndex idx = RecordOp(d2h);
    for (int g = 0; g < n_gpus; ++g) d2h_idx[static_cast<size_t>(g)] = idx;
  } else {
    for (int g = 0; g < n_gpus; ++g) {
      JobGpuSlice& slice = job->gpus[static_cast<size_t>(g)];
      const uint64_t bytes =
          static_cast<uint64_t>(slice.wa_end - slice.wa_begin) * wa_b;
      gpu::TimelineOp d2h;
      d2h.kind = gpu::OpKind::kD2H;
      d2h.resource = {gpu::ResourceId::Type::kCopyEngine, g};
      d2h.duration = static_cast<double>(bytes) / tm.c1;
      d2h.bytes = bytes;
      d2h.job = job->job_id;
      d2h_idx[static_cast<size_t>(g)] = RecordOp(d2h);
    }
  }

  // Execution: fold every device replica/chunk into the host arrays.
  for (int g = 0; g < n_gpus; ++g) {
    JobGpuSlice& slice = job->gpus[static_cast<size_t>(g)];
    AbsorbSliceWa(kernel, slice);
    if (race_ != nullptr) {
      NoteWaReplica(*job, g, race_->HostLane(),
                    analysis::AccessClass::kPlainRead,
                    d2h_idx[static_cast<size_t>(g)]);
    }
  }
  if (cpu_ != nullptr) {
    // Host-internal; crosses no PCI-E link, so no timeline op.
    kernel->AbsorbDeviceWa(cpu_->wa.data(), 0, graph_->num_vertices());
    if (race_ != nullptr) {
      NoteWaReplica(*job, kHostReplica, race_->HostLane(),
                    analysis::AccessClass::kPlainRead, gpu::kNoOp);
    }
  }
  if (options_.io.wa_snapshot) {
    // Spill each GPU's downloaded WA replica/chunk to storage through the
    // io write path: the write queues behind pending reads on its device
    // and is recorded as kStorageWrite depending on the D2H that produced
    // the bytes, so checkpoint traffic contends in the simulated schedule
    // instead of being invisible. Layout: past the striped page region,
    // GPUs round-robined over devices, chunks packed in GPU order -- the
    // same offsets every download (a snapshot, not a journal: jobs
    // completing later in an epoch overwrite earlier snapshots).
    const size_t n_dev = store_->num_devices();
    std::vector<uint64_t> cursor(n_dev);
    for (size_t d = 0; d < n_dev; ++d) cursor[d] = store_->DevicePageBytes(d);
    for (int g = 0; g < n_gpus; ++g) {
      JobGpuSlice& slice = job->gpus[static_cast<size_t>(g)];
      const uint64_t bytes =
          static_cast<uint64_t>(slice.wa_end - slice.wa_begin) * wa_b;
      if (bytes == 0) continue;
      const size_t d = static_cast<size_t>(g) % n_dev;
      auto wrote = io_->Write(d, cursor[d], slice.wa_buf.data(), bytes,
                              d2h_idx[static_cast<size_t>(g)]);
      GTS_CHECK_OK(wrote.status());
      cursor[d] += bytes;
    }
  }
  if (race_ != nullptr) race_->BarrierRelease();
}

void GtsEngine::SyncJobLevel(JobExec* job) {
  const TimeModel& tm = machine_.time_model;
  const int n_gpus = machine_.num_gpus;
  GtsKernel* kernel = job->kernel;
  // Local nextPIDSets to the host.
  job->frontier->Clear();
  for (int g = 0; g < n_gpus; ++g) {
    JobGpuSlice& slice = job->gpus[static_cast<size_t>(g)];
    gpu::TimelineOp d2h;
    d2h.kind = gpu::OpKind::kD2H;
    d2h.resource = {gpu::ResourceId::Type::kCopyEngine, g};
    d2h.duration = static_cast<double>(slice.local_next->ByteSize()) / tm.c1;
    d2h.bytes = slice.local_next->ByteSize();
    d2h.job = job->job_id;
    RecordOp(d2h);
    job->frontier->Union(*slice.local_next);
  }
  if (cpu_ != nullptr) job->frontier->Union(*cpu_->local_next);
  if (n_gpus + (cpu_ != nullptr ? 1 : 0) <= 1) return;

  // Replicated traversal WA must propagate across replicas between
  // levels. Only this level's updated entries travel: (vid, value) pairs
  // each way, not the whole vector (the paper notes the WA synchronized
  // per level "is usually negligible", Section 5.2).
  uint64_t total_updates = 0;
  for (const JobGpuSlice& slice : job->gpus) {
    for (const WorkStats& w : slice.stream_work) total_updates += w.wa_updates;
  }
  if (cpu_ != nullptr) {
    for (const WorkStats& w : cpu_->lane_work) total_updates += w.wa_updates;
  }
  const uint64_t level_updates = total_updates - job->prev_updates;
  job->prev_updates = total_updates;
  const uint64_t delta_bytes =
      level_updates * (kernel->wa_bytes_per_vertex() + 8);
  std::vector<gpu::OpIndex> delta_d2h;
  std::vector<gpu::OpIndex> delta_h2d;
  for (int g = 0; g < n_gpus; ++g) {
    gpu::TimelineOp d2h;
    d2h.kind = gpu::OpKind::kD2H;
    d2h.resource = {gpu::ResourceId::Type::kCopyEngine, g};
    d2h.duration = static_cast<double>(delta_bytes / n_gpus) / tm.c1;
    d2h.bytes = delta_bytes / n_gpus;
    d2h.job = job->job_id;
    delta_d2h.push_back(RecordOp(d2h));
    gpu::TimelineOp h2d;
    h2d.kind = gpu::OpKind::kH2DChunk;
    h2d.resource = {gpu::ResourceId::Type::kCopyEngine, g};
    h2d.duration = static_cast<double>(delta_bytes) / tm.c1;
    h2d.bytes = delta_bytes;
    h2d.job = job->job_id;
    delta_h2d.push_back(RecordOp(h2d));
  }
  // Execution: fold every replica into the host arrays, then refresh
  // every replica from the merged state (equivalent to applying the
  // update lists).
  const int host = race_ != nullptr ? race_->HostLane() : 0;
  for (int g = 0; g < n_gpus; ++g) {
    JobGpuSlice& slice = job->gpus[static_cast<size_t>(g)];
    AbsorbSliceWa(kernel, slice);
    NoteWaReplica(*job, g, host, analysis::AccessClass::kPlainRead,
                  delta_d2h[static_cast<size_t>(g)]);
  }
  if (cpu_ != nullptr) {
    kernel->AbsorbDeviceWa(cpu_->wa.data(), 0, graph_->num_vertices());
    NoteWaReplica(*job, kHostReplica, host, analysis::AccessClass::kPlainRead,
                  gpu::kNoOp);
  }
  for (int g = 0; g < n_gpus; ++g) {
    JobGpuSlice& slice = job->gpus[static_cast<size_t>(g)];
    InitSliceWa(kernel, slice);
    NoteWaReplica(*job, g, host, analysis::AccessClass::kPlainWrite,
                  delta_h2d[static_cast<size_t>(g)]);
  }
  if (cpu_ != nullptr) {
    kernel->InitDeviceWa(cpu_->wa.data(), 0, graph_->num_vertices());
    NoteWaReplica(*job, kHostReplica, host, analysis::AccessClass::kPlainWrite,
                  gpu::kNoOp);
  }
}

void GtsEngine::FinishJobInEpoch(JobExec* job) {
  if (job->status.ok()) {
    DownloadWaJob(job);
    if (job->traversal()) {
      job->metrics.levels = job->level;
    } else {
      analysis::sync::Lock lock(record_mu_);
      recorder_.AddBarrier(machine_.time_model.sync_overhead *
                           machine_.num_gpus);
      job->metrics.levels = 1;
    }
    for (const JobGpuSlice& slice : job->gpus) {
      for (const WorkStats& w : slice.stream_work) job->metrics.work += w;
    }
    if (cpu_ != nullptr) {
      for (const WorkStats& w : cpu_->lane_work) job->metrics.work += w;
      job->metrics.cpu_lane_work = cpu_->lane_work;
    }
    // Storage/io counters are epoch-cumulative up to this job's
    // completion (the queues are shared; per-job attribution of a merged
    // read would be arbitrary).
    job->metrics.io = store_->stats();
    job->metrics.io_queue = io_->stats();
  }
  job->finished = true;
  job->gpus.clear();
}

Status GtsEngine::ProcessPagesBatch(const std::vector<PageId>& ordered) {
  if (options_.use_stream_threads && options_.dispatch.work_stealing) {
    return ProcessPagesBatchPull(ordered);
  }
  GTS_PROF_SCOPE("engine.process_pages");
  for (PageId pid : ordered) {
    const PageRoute route = RoutePage(pid);
    if (route.cpu) {
      GTS_RETURN_IF_ERROR(ProcessPageOnCpu(demand_[pid].front(), pid));
      continue;
    }
    const PageKind kind = graph_->kind(pid);
    for (int g = route.first_gpu; g <= route.last_gpu; ++g) {
      GpuState& gpu = *gpus_[g];
      const int s = pipeline_->AssignStream(static_cast<int>(kind),
                                            gpu.stream_last_kind, &gpu.rr);
      GTS_RETURN_IF_ERROR(StreamPageToGpuBatch(pid, g, s, /*pull=*/false,
                                               /*stolen=*/false));
    }
  }
  return Status::OK();
}

Status GtsEngine::ProcessPagesBatchPull(const std::vector<PageId>& ordered) {
  GTS_PROF_SCOPE("engine.process_pages");
  const int n_gpus = machine_.num_gpus;
  const int n_streams = options_.num_streams;

  // Publish the whole pass up front. The Assign step picks each item's
  // home (gpu, stream) -- sticky's kind affinity keeps meaning as the
  // steal hint -- and replicated pages fan out as one gpu-bound item per
  // GPU (each GPU must run its own copy; only partitioned items may later
  // migrate across GPUs).
  ReadyQueue queue(n_gpus, n_streams, work_item_seq_);
  queue.BindEventLog(&dispatch_events_);
  queue.BindMetrics(&registry_->GetDistribution("dispatch.queue_wait"),
                    &registry_->GetCounter("dispatch.steals"));
  std::vector<PageId> cpu_pages;
  for (PageId pid : ordered) {
    const PageRoute route = RoutePage(pid);
    if (route.cpu) {
      cpu_pages.push_back(pid);
      continue;
    }
    const PageKind kind = graph_->kind(pid);
    const bool gpu_bound = route.last_gpu > route.first_gpu;
    for (int g = route.first_gpu; g <= route.last_gpu; ++g) {
      GpuState& gpu = *gpus_[g];
      const int s = pipeline_->AssignStream(static_cast<int>(kind),
                                            gpu.stream_last_kind, &gpu.rr);
      queue.Push(pid, g, s, static_cast<int>(kind), gpu_bound);
    }
  }
  // All ids for this pass are assigned; the next pass continues the
  // epoch's sequence so the R9 audit's per-item key stays unique.
  work_item_seq_ = queue.next_id();

  // Hybrid CPU-assist pages run on the host thread *before* the workers
  // start: ProcessPageOnCpu reads its page straight out of MMBuf, which
  // concurrent worker Acquires may evict mid-kernel. Simulated time is
  // unaffected (op overlap is the simulator's business); only host
  // wall-clock loses the CPU/GPU overlap, and cpu_assist_fraction is 0
  // in every paper configuration.
  for (PageId pid : cpu_pages) {
    GTS_RETURN_IF_ERROR(ProcessPageOnCpu(demand_[pid].front(), pid));
  }

  // Cross-GPU steals need WA replicated on every device (Strategy-P);
  // under Strategy-S every item is gpu-bound anyway (replicated stream).
  const bool allow_cross =
      options_.strategy == Strategy::kPerformance && n_gpus > 1;
  std::mutex error_mu;
  Status first_error;
  for (int g = 0; g < n_gpus; ++g) {
    for (int s = 0; s < n_streams; ++s) {
      gpus_[g]->streams[s]->Enqueue([this, &queue, &error_mu, &first_error,
                                     allow_cross, g, s] {
        ClaimContext ctx;
        ctx.gpu = g;
        ctx.stream = s;
        ctx.stream_key = StreamKey(g, s);
        ctx.allow_cross_gpu = allow_cross;
        const uint32_t batch = options_.dispatch.steal_batch;
        std::vector<WorkItem> items;
        WorkItem item;
        bool done = false;
        while (!done) {
          // stream_last_kind[s] is owner-exclusive: only this worker
          // processes on (g, s), so the unlocked read is safe.
          ctx.last_kind = gpus_[g]->stream_last_kind[s];
          if (batch > 1) {
            if (!pipeline_->ClaimWorkBatch(queue, ctx, batch, &items)) break;
          } else {
            // batch == 1 takes the exact pre-batching claim call.
            if (!pipeline_->ClaimWork(queue, ctx, &item)) break;
            items.assign(1, item);
          }
          for (const WorkItem& claimed : items) {
            Status status = StreamPageToGpuBatch(claimed.pid, g, s,
                                                 /*pull=*/true,
                                                 claimed.stolen);
            if (!status.ok()) {
              std::lock_guard<std::mutex> lock(error_mu);
              if (first_error.ok()) first_error = std::move(status);
              done = true;
              break;
            }
          }
        }
      });
    }
  }
  // The queue and error slot live on this frame: drain every worker
  // before returning (the caller's SynchronizeStreams is then a no-op).
  // A worker that errored stops claiming; its siblings still drain the
  // queue, and the first error surfaces after the pass settles.
  for (auto& gpu : gpus_) {
    for (auto& stream : gpu->streams) stream->Synchronize();
  }
  return first_error;
}

Status GtsEngine::StreamPageToGpuBatch(PageId pid, int g, int s, bool pull,
                                       bool stolen) {
  const TimeModel& tm = machine_.time_model;
  const PageConfig& config = graph_->config();
  const uint64_t page_size = config.page_size;
  const PageKind kind = graph_->kind(pid);
  GpuState& gpu = *gpus_[g];
  const int stream_key = StreamKey(g, s);
  const std::vector<JobExec*>& demanders = demand_[pid];
  JobExec* first = demanders.front();

  // Pull mode serializes the host-side phase: Acquire can evict the
  // MMBuf bytes another worker is mid-copy on, and the recorded op order
  // must be internally consistent per stream. Released before the
  // kernels execute -- that part is the parallelism.
  analysis::sync::UniqueLock host_phase(dispatch_mu_,
                                      analysis::sync::UniqueLock::kDefer);
  if (pull) host_phase.lock();

  // Host-side routing against cachedPIDMap (Algorithm 1 line 16). A
  // hit returns an RAII Pin: the lease blocks eviction, so the kernels
  // can run in place against the cached device page even while Insert
  // calls on other stream threads evict around it. The Pin is move-only
  // and moves straight into the execute closure (gpu::Task). Lookups
  // and hits are credited to the first demander, like pages_streamed.
  PageCache::Pin pin;
  if (gpu.cache != nullptr) {
    pin = gpu.cache->Lookup(pid);
    ++first->metrics.cache_lookups;
    if (pin.valid()) ++first->metrics.cache_hits;
  }
  const bool cached = pin.valid();

  // Holds streamed page bytes alive for the enqueued closure (thread
  // mode); unused on a cache hit, where the pinned bytes are read
  // directly.
  std::vector<uint8_t> staging;
  if (!cached) {
    staging.resize(page_size);
    transfer::StageRequest sreq;
    sreq.pid = pid;
    sreq.gpu = g;
    sreq.stream_key = stream_key;
    sreq.stolen = stolen;
    // A transfer serving one job is that job's trace lane; a transfer
    // serving several is shared infrastructure (-1), so the J1 rule
    // never sees a cross-job edge from the co-served kernels. (demand_
    // groups a job's occurrences together, admission order.)
    sreq.job = demanders.back() == first ? first->job_id : -1;
    GTS_ASSIGN_OR_RETURN(transfer::StagedPage staged, transfer_->Stage(sreq));
    // First-demander attribution: across the epoch, sum(pages_streamed)
    // over jobs equals the distinct H2D page transfers.
    ++first->metrics.pages_streamed;
    first->metrics.transfer_bytes += staged.bytes;
    if (staged.direct) {
      ++first->metrics.direct_pages;
      first->metrics.direct_bytes += staged.bytes;
    }
    if (race_ != nullptr) {
      // storage -> MMBuf event, then host consumes the bytes.
      if (!staged.buffer_hit) {
        race_->OnPageStaged(static_cast<int>(staged.device_index), pid,
                            staged.fetch_op);
      }
      race_->OnPageDelivered(pid);
      // The copy engine reads the staged MMBuf bytes into the stream
      // buffer; fusing with the stream carries the transfer->kernel
      // happens-before edge (CUDA in-stream ordering).
      const int copy = race_->CopyLane(g);
      race_->Join(copy, race_->HostLane());
      race_->BeginOp(copy);
      race_->OnPageAccess(copy, analysis::RaceDetector::kMmbufDomain, pid,
                          /*write=*/false, staged.transfer_op);
      race_->Fuse(copy, race_->StreamLane(g, s, stream_key));
    }
    // Copied while the host phase owns the MMBuf bytes: in pull mode a
    // sibling worker's Acquire may evict `staged.data` the moment
    // dispatch_mu_ is released.
    std::memcpy(staging.data(), staged.data, page_size);
    // Streaming ingestion: overlay once per staging (the MMBuf copy stays
    // the installed base image); every co-served job reads the same
    // patched epoch-consistent copy.
    if (ingest_ != nullptr) (void)ingest_->Overlay(pid, staging.data());
  }
  if (demanders.back() != first) {
    obs::Counter& shared = registry_->GetCounter("cache.shared_page_hits");
    for (size_t i = 1; i < demanders.size(); ++i) {
      if (demanders[i] == demanders[i - 1]) continue;  // the job's repeat
      ++demanders[i]->metrics.shared_page_hits;
      shared.Add();
    }
  }

  // One kernel launch per demanding job against the one staged/cached
  // copy of the page (Algorithm 1 line 17 on a hit). RA subvectors stay
  // per job (each kernel's host RA array); a one-job epoch never has a
  // cache next to RA (RunJobBatch enables the cache only for RA-free
  // traversal kernels), but a shared cache hit still streams RA for the
  // jobs of a multi-job epoch that carry it.
  const bool insert_into_cache = gpu.cache != nullptr && !cached;
  const int race_lane =
      race_ != nullptr ? race_->StreamLane(g, s, stream_key) : 0;
  GTS_CHECK(launches_.size() + demanders.size() <= launches_.capacity())
      << "launch arena under-reserved";
  JobLaunch* const launch_begin = launches_.data() + launches_.size();
  for (JobExec* job : demanders) {
    JobLaunch jl;
    jl.job = job;
    const uint32_t ra_b = job->kernel->ra_bytes_per_vertex();
    const uint8_t* host_ra = job->kernel->host_ra();
    if (ra_b > 0 && host_ra != nullptr) {
      jl.ra_start_vid = graph_->rvt().entry(pid).start_vid;
      const uint32_t covered =
          kind == PageKind::kSmall ? graph_->view(pid).num_slots() : 1;
      jl.ra_bytes = static_cast<uint64_t>(covered) * ra_b;
      jl.ra_src = host_ra + static_cast<uint64_t>(jl.ra_start_vid) * ra_b;

      gpu::TimelineOp ra_op;
      ra_op.kind = gpu::OpKind::kH2DStream;
      ra_op.stream_key = stream_key;
      ra_op.resource = {gpu::ResourceId::Type::kCopyEngine, g};
      ra_op.duration = static_cast<double>(jl.ra_bytes) / tm.c2;
      ra_op.bytes = jl.ra_bytes;
      ra_op.page = pid;
      ra_op.job = job->job_id;
      RecordOp(ra_op);
    }

    gpu::TimelineOp kop;
    kop.kind = gpu::OpKind::kKernel;
    kop.stream_key = stream_key;
    kop.resource = {gpu::ResourceId::Type::kKernelPool, g};
    // Switching between the SP and LP kernels on a stream costs extra
    // (Section 3.2); the work-dependent time is added after execution.
    kop.duration = 0.0;
    if (gpu.stream_last_kind[s] >= 0 &&
        gpu.stream_last_kind[s] != static_cast<int>(kind)) {
      kop.duration = tm.kernel_switch_overhead;
    }
    gpu.stream_last_kind[s] = static_cast<int>(kind);
    kop.page = pid;
    kop.stolen = stolen;
    kop.job = job->job_id;
    jl.kidx = RecordOp(kop);
    if (kind == PageKind::kSmall) {
      ++job->metrics.sp_kernel_calls;
    } else {
      ++job->metrics.lp_kernel_calls;
    }
    if (race_ != nullptr) {
      // Issue edge: the kernel launch is a host action, so everything
      // that happened-before the launch happens-before the kernel.
      // Later host actions are NOT ordered before it (Join ticks host).
      race_->BeginOp(race_lane);
      race_->Join(race_lane, race_->HostLane());
      if (job == first && (cached || insert_into_cache)) {
        race_->OnPageAccess(race_lane, analysis::RaceDetector::CacheDomain(g),
                            pid, /*write=*/!cached, jl.kidx);
      }
    }
    launches_.push_back(jl);
  }
  const size_t n_launches = demanders.size();

  // Captured in the host phase: PageVersion may only move at safe
  // points, but the execute closure can run after this pass's sync.
  const uint64_t page_version =
      ingest_ != nullptr ? ingest_->PageVersion(pid) : 0;
  // The push loop without stream threads runs every kernel right here on
  // the driver thread, one at a time: its WA operations need no atomics.
  const bool on_driver = !pull && !options_.use_stream_threads;
  GpuState* gpu_ptr = &gpu;
  auto execute = [this, gpu_ptr, pin = std::move(pin),
                  staging = std::move(staging), launch_begin, n_launches,
                  kind, g, s, race_lane, insert_into_cache, pid, config,
                  page_version, on_driver]() {
    const TimeModel& tm = machine_.time_model;
    GpuState& st = *gpu_ptr;
    const uint8_t* page_bytes = nullptr;
    if (pin.valid()) {
      // Cache hit: run in place against the pinned device page; no copy
      // is needed and the Pin keeps the buffer alive until this closure
      // is destroyed.
      page_bytes = pin.data();
    } else {
      // "Copy" into the device stream buffer, then run there.
      uint8_t* dst = kind == PageKind::kSmall ? st.sp_buf[s].data()
                                              : st.lp_buf[s].data();
      std::memcpy(dst, staging.data(), staging.size());
      page_bytes = dst;
    }
    PageView view(page_bytes, config);
    for (const JobLaunch* jl = launch_begin; jl != launch_begin + n_launches;
         ++jl) {
      JobGpuSlice& slice = jl->job->gpus[static_cast<size_t>(g)];
      if (jl->ra_src != nullptr) {
        std::memcpy(st.ra_buf[s].data(), jl->ra_src, jl->ra_bytes);
      }
      KernelContext ctx;
      ctx.rvt = &graph_->rvt();
      ctx.wa = slice.wa_buf.data();
      ctx.wa_begin = slice.wa_begin;
      ctx.wa_end = slice.wa_end;
      ctx.ra = jl->ra_src != nullptr ? st.ra_buf[s].data() : nullptr;
      ctx.ra_start_vid = jl->ra_start_vid;
      ctx.cur_level = jl->job->cur_level();
      ctx.next_pid_set = slice.local_next.get();
      if (slice.local_next != nullptr && slice.local_next->counting()) {
        ctx.out_degrees = out_degrees_.data();
      }
      ctx.micro = options_.micro;
      ctx.serial = on_driver;
      if (race_ != nullptr) {
        ctx.race_site = {race_.get(), race_lane,
                         analysis::RaceDetector::WaDomain(g, jl->job->job_id),
                         jl->kidx, pid};
      }
      GtsKernel* kernel = jl->job->kernel;
      const WorkStats work = kind == PageKind::kSmall
                                 ? kernel->RunSp(view, ctx)
                                 : kernel->RunLp(view, ctx);
      slice.stream_work[static_cast<size_t>(s)] += work;
      PatchKernelDuration(
          jl->kidx,
          tm.kernel_launch_overhead +
              static_cast<double>(work.warp_cycles) * tm.warp_cycle_seconds +
              static_cast<double>(work.mem_transactions) *
                  kernel->seconds_per_mem_transaction(tm));
    }
    if (insert_into_cache) {
      // Device-internal copy; deliberately not a timeline op (it does
      // not cross PCI-E). Failure is cache-full backpressure (counted
      // by the cache) -- the page simply stays on the streaming path.
      (void)st.cache->Insert(pid, page_bytes, page_version);
    }
  };

  if (pull) {
    // The calling thread IS the stream worker: run the kernels inline,
    // outside the host-phase lock.
    host_phase.unlock();
    execute();
  } else if (on_driver) {
    execute();
  } else {
    gpu.streams[s]->Enqueue(std::move(execute));
  }
  return Status::OK();
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
    job->gpus.clear();
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
  if (any_traversal && CountFrontier()) BuildDegreeTable();

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
    last->gpus.clear();
    if (admitted.size() == 1) {
      last->status = st;
      last->finished = true;
      return Status::OK();
    }
    admitted.pop_back();
  }

  // Host co-processing: Validate() keeps cpu_assist_fraction > 0 to
  // one-job epochs, so the engine-level CpuState belongs to that job.
  if (options_.cpu_assist_fraction > 0.0) {
    const Status st = SetupCpuAssist(admitted.front()->kernel);
    if (!st.ok()) {
      admitted.front()->status = st;
      admitted.front()->finished = true;
      ReleaseBatchBuffers(admitted);
      return Status::OK();
    }
  }

  // Shared page cache: exists when any admitted job qualifies (traversal
  // kernel, cache enabled, RA-free). Full scans touch every page once,
  // so a cache cannot help them and the paper disables it (Section 3.3);
  // cached topology bytes are job-agnostic and serve every demander.
  bool any_cache = false;
  for (JobExec* job : admitted) {
    any_cache |=
        job->kernel->access_pattern() == AccessPattern::kTraversal &&
        options_.enable_cache && job->kernel->ra_bytes_per_vertex() == 0;
  }
  if (any_cache) SetupCaches();

  // Epoch-start clears (one epoch = one schedule).
  {
    analysis::sync::Lock lock(record_mu_);
    recorder_.Clear();
  }
  store_->ResetStats();
  io_->ResetStats();
  pin_events_.Clear();
  io_events_.Clear();
  dispatch_events_.Clear();
  work_item_seq_ = 0;
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
  std::unique_ptr<PidSet> merged_frontier;
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

    // Mid-epoch safe point, taken only when another pass follows: fold
    // newly appended ingest updates in unless a job pinned the epoch's
    // graph version (the first pass follows the epoch-start publish).
    if (!first_pass && !pin_version) {
      PublishIngest();
      if (any_traversal && CountFrontier()) BuildDegreeTable();
    }
    first_pass = false;

    // Per-job page lists for this pass.
    struct JobPages {
      JobExec* job = nullptr;
      std::vector<PageId> sps;
      std::vector<PageId> lps;
    };
    std::vector<JobPages> plan;
    plan.reserve(running.size());
    const PidSet* pass_frontier = nullptr;
    int traversal_jobs = 0;
    for (JobExec* job : running) {
      JobPages jp;
      jp.job = job;
      if (job->traversal()) {
        ++traversal_jobs;
        pass_frontier = job->frontier.get();
        uint64_t skipped = 0;
        const std::vector<PageId> front_pages = job->frontier->ToVector();
        const uint32_t min_edges =
            EffectiveMinActiveEdges(*job->frontier, front_pages);
        for (PageId pid : front_pages) {
          // Admission threshold: a page whose activated vertices hold
          // fewer than min_active_edges out-edges is not worth a stream
          // slot this level (at threshold 1 the cut is exact -- zero
          // active edges means zero possible expansions).
          if (min_edges > 0 && job->frontier->counting() &&
              job->frontier->CountOf(pid) < min_edges) {
            ++skipped;
            continue;
          }
          if (graph_->kind(pid) == PageKind::kSmall) {
            jp.sps.push_back(pid);
          } else {
            // Record IDs address an LP vertex through its first chunk;
            // the RVT's LP_RANGE says how many continuation pages follow,
            // and a traversal must stream the whole run (Figure 1 /
            // Appendix A).
            const uint32_t more = graph_->rvt().entry(pid).lp_more;
            for (uint32_t k = 0; k <= more; ++k) jp.lps.push_back(pid + k);
          }
        }
        if (skipped > 0) {
          job->metrics.pages_skipped += skipped;
          registry_->GetCounter("dispatch.skipped_pages").Add(skipped);
        }
        if (job->kernel->collect_level_pages()) {
          std::vector<PageId> combined = jp.sps;
          combined.insert(combined.end(), jp.lps.begin(), jp.lps.end());
          job->metrics.level_pages.push_back(std::move(combined));
        }
        for (auto& slice : job->gpus) slice.local_next->Clear();
        if (cpu_ != nullptr) cpu_->local_next->Clear();
      } else if (job->is_pass) {
        for (PageId pid : job->pages) {
          (graph_->kind(pid) == PageKind::kSmall ? jp.sps : jp.lps)
              .push_back(pid);
        }
      } else {
        // Full scan: one pass over all SPs, then all LPs (Section 3.2),
        // reordered per the dispatch pipeline's page-order policy.
        jp.sps = graph_->small_page_ids();
        jp.lps = graph_->large_page_ids();
      }
      job->participated = true;
      plan.push_back(std::move(jp));
    }

    // Demand union + weighted-round-robin merge (JobOptions::priority =
    // pages taken per turn): each distinct page enters the merged order
    // once, at the turn of the first job that claims it, and demand_
    // lists every job demanding it in admission order -- once per
    // occurrence, so a page a job lists twice runs that job's kernel
    // twice on the one staged copy.
    for (const JobPages& jp : plan) {
      for (PageId pid : jp.sps) demand_[pid].push_back(jp.job);
      for (PageId pid : jp.lps) demand_[pid].push_back(jp.job);
    }
    if (++merge_epoch_ == 0) {
      std::fill(merge_stamp_.begin(), merge_stamp_.end(), 0);
      merge_epoch_ = 1;
    }
    auto merge_wrr = [this, &plan](bool large) {
      std::vector<PageId> merged;
      std::vector<size_t> cursor(plan.size(), 0);
      for (;;) {
        bool advanced = false;
        for (size_t j = 0; j < plan.size(); ++j) {
          const std::vector<PageId>& list =
              large ? plan[j].lps : plan[j].sps;
          int take = std::max(1, plan[j].job->options.priority);
          while (take-- > 0 && cursor[j] < list.size()) {
            const PageId pid = list[cursor[j]++];
            if (merge_stamp_[pid] != merge_epoch_) {
              merge_stamp_[pid] = merge_epoch_;
              merged.push_back(pid);
            }
            advanced = true;
          }
        }
        if (!advanced) break;
      }
      return merged;
    };
    std::vector<PageId> merged_sps = merge_wrr(/*large=*/false);
    std::vector<PageId> merged_lps = merge_wrr(/*large=*/true);

    // The ordering/admission context for frontier-aware dispatch
    // policies sees the union of every running traversal job's
    // activations (a lone traversal job's frontier as is).
    if (traversal_jobs > 1) {
      if (merged_frontier == nullptr) {
        merged_frontier = std::make_unique<PidSet>(graph_->num_pages());
        if (CountFrontier()) merged_frontier->EnableCounting();
      }
      merged_frontier->Clear();
      for (JobExec* job : running) {
        if (job->traversal()) merged_frontier->Union(*job->frontier);
      }
      pass_frontier = merged_frontier.get();
    }

    const std::vector<PageId> ordered =
        PlanPass(std::move(merged_sps), std::move(merged_lps), pass_frontier);
    size_t max_launches = 0;
    for (PageId pid : ordered) max_launches += demand_[pid].size();
    launches_.clear();
    launches_.reserve(max_launches * static_cast<size_t>(
                                         pipeline_->replicates()
                                             ? machine_.num_gpus
                                             : 1));
    Status pass_status = ProcessPagesBatch(ordered);
    SynchronizeStreams();
    for (PageId pid : ordered) demand_[pid].clear();
    if (!pass_status.ok()) {
      for (JobExec* job : running) {
        job->status = pass_status;
        job->finished = true;
        job->gpus.clear();
      }
      break;
    }
    if (traversal_jobs == 0) continue;

    // Per-level sync, job by job in admission order, then one host merge
    // + barrier for the pass. The level boundary is a BSP barrier for the
    // race detector: the stream sync above orders every kernel of this
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
    {
      analysis::sync::Lock lock(record_mu_);
      recorder_.AddBarrier(tm.sync_overhead);
    }
    if (race_ != nullptr) race_->BarrierRelease();
    for (JobExec* job : running) {
      if (job->traversal()) ++job->level;
    }
  }

  FinalizeBatchEpoch(jobs);
  return Status::OK();
}

void GtsEngine::FinalizeBatchEpoch(const std::vector<JobExec*>& jobs) {
  GTS_PROF_SCOPE("engine.finalize_run");
  std::vector<gpu::TimelineOp> ops;
  {
    analysis::sync::Lock lock(record_mu_);
    ops = recorder_.TakeOps();
  }
  gpu::ScheduleResult schedule =
      gpu::ScheduleSimulator(machine_.time_model).Run(std::move(ops));

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
    validator.CheckIoEvents(io_events_.Take(), &report);
    validator.CheckDispatchEvents(dispatch_events_.Take(), &report);
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
  // epoch triggered, plus background compactions that landed since the
  // previous harvest). Cache backpressure is epoch-wide the same way.
  ingest::IngestStats epoch_ingest;
  if (ingest_ != nullptr) epoch_ingest = ingest_->TakeRunStats();
  uint64_t cache_backpressure = 0;
  for (const auto& gpu : gpus_) {
    if (gpu->cache != nullptr) {
      cache_backpressure += gpu->cache->insert_backpressure();
    }
  }

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
    m.cache_backpressure = cache_backpressure;
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
