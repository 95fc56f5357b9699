#include "core/engine.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "core/dispatch/page_order.h"
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
  /// One host worker: runs the launches of the jobs it owns in the pass
  /// (JobExec::worker) in dispatch order. A staged page waits in its ring
  /// slot's buffer; a launch copies its RA into `ra` (the worker runs one
  /// launch at a time).
  struct Worker {
    Worker(size_t ring_depth, uint64_t page_size)
        : stream(ring_depth, page_size) {}
    gpu::Stream stream;
    std::vector<uint8_t> ra;  // largest admitted RA record of a page
  };

  GpuState(int num_workers, size_t ring_depth, uint64_t page_size) {
    for (int w = 0; w < num_workers; ++w) {
      workers.push_back(std::make_unique<Worker>(ring_depth, page_size));
    }
  }

  std::unique_ptr<gpu::Device> device;
  std::vector<std::unique_ptr<Worker>> workers;
  /// Device memory of the SPBuf, LPBuf and RABuf of every stream,
  /// accounted without host bytes: the workers' rings and RA buffers
  /// hold what the kernels read.
  uint64_t stream_buf_bytes = 0;
  std::vector<int> stream_last_kind;  // -1 until a kernel ran on the stream
  /// Kept across epochs, so its page buffers are too.
  std::unique_ptr<PageCache> page_cache;
  PageCache* cache = nullptr;  // page_cache while an epoch caches, else null
  int rr = 0;  // round-robin stream cursor
};

/// Host-CPU co-processing state (Section 9 future-work extension).
struct GtsEngine::CpuState {
  std::vector<uint8_t> wa;             // full host-side WA replica
  std::unique_ptr<PidSet> local_next;  // traversal frontier contribution
  std::vector<WorkStats> lane_work;    // per CPU worker lane
  int rr = 0;
};

/// One job's kernel launch against a staged or cached page: recorded by
/// the driver, run by the job's worker on the GPU, which reads nothing
/// else of the job. One cache line each keeps the driver's and the
/// workers' writes apart.
struct alignas(64) GtsEngine::JobLaunch {
  GtsKernel* kernel = nullptr;
  JobGpuSlice* slice = nullptr;
  const uint8_t* ra_src = nullptr;  // host RA subvector
  uint64_t ra_bytes = 0;
  gpu::OpIndex kidx = gpu::kNoOp;
  VertexId ra_start_vid = 0;
  uint32_t level = 0;
  int32_t job_id = -1;
  SimTime duration = 0.0;  // kernel time, written by the worker
};

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
  if (options_.dispatch.order == PageOrderKind::kCacheAffinity) {
    registry_->GetCounter("dispatch.order.cached_first");
  }
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
  cpu_.reset();
}

gpu::OpIndex GtsEngine::RecordOp(gpu::TimelineOp op) {
  return recorder_.Add(op);
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
  // GPU path) so the op index exists for race-site attribution.
  gpu::TimelineOp kop;
  kop.kind = gpu::OpKind::kKernel;
  kop.stream_key = (1 << 20) + lane;  // dedicated CPU lanes
  kop.resource = {gpu::ResourceId::Type::kHostCpuPool, 0};
  kop.dep0 = fetch_dep;
  kop.page = pid;
  kop.duration = 0.0;
  kop.job = job->job_id;
  const gpu::OpIndex kidx = RecordOp(kop);
  io_->NoteReader(fetch, kidx);

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

  if (race_ != nullptr) {
    if (!fetch.buffer_hit) {
      race_->OnPageStaged(static_cast<int>(fetch.device_index), pid,
                          fetch.fetch_op, fetch.evicted, recorder_.ops());
    }
    race_->OnPageDelivered(pid);
    const int cl = race_->CpuLane(lane, (1 << 20) + lane);
    race_->BeginOp(cl);
    race_->Join(cl, race_->HostLane());
    // The CPU lane reads the page straight out of MMBuf.
    race_->OnMmbufRead(cl, pid, kidx);
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
  recorder_.op(kidx).duration +=
      static_cast<double>(work.warp_cycles) * tm.warp_cycle_seconds *
          tm.cpu_cycle_multiplier +
      static_cast<double>(work.mem_transactions) *
          kernel->seconds_per_mem_transaction(tm) * tm.cpu_mem_multiplier;

  ++job->metrics.cpu_pages;
  if (kind == PageKind::kSmall) {
    ++job->metrics.sp_kernel_calls;
  } else {
    ++job->metrics.lp_kernel_calls;
  }
  return Status::OK();
}

void GtsEngine::DrainWorkers() {
  {
    // How much kernel time the staging of the pass left exposed.
    GTS_PROF_SCOPE("engine.drain");
    for (auto& gpu : gpus_) {
      for (auto& worker : gpu->workers) worker->stream.Synchronize();
    }
  }
  // Added to any switch overhead recorded at issue time.
  for (const JobLaunch& jl : launches_) {
    recorder_.op(jl.kidx).duration += jl.duration;
  }
}

bool GtsEngine::WorkersBlocked() const {
  for (const auto& gpu : gpus_) {
    for (const auto& worker : gpu->workers) {
      if (!worker->stream.blocked()) return false;
    }
  }
  return true;
}

std::vector<PageId> GtsEngine::PlanPass(std::vector<PageId> sps,
                                        std::vector<PageId> lps,
                                        const PidSet* frontier) {
  PageOrderContext ctx;
  // Contains() touches no cache statistics.
  bool any_cache = false;
  for (const auto& gpu : gpus_) any_cache |= gpu->cache != nullptr;
  if (any_cache) {
    ctx.is_cached = [this](PageId pid) {
      const int g = replicate_ ? 0 : static_cast<int>(pid) % machine_.num_gpus;
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
      OrderPages(options_.dispatch.order, std::move(sps), std::move(lps), ctx,
                 registry_.get());

  // No read merges across the pass barrier. Then the pass's transfer
  // mode: whole pages, or direct fetches of active adjacency lists.
  io_->BeginPass();
  transfer_->BeginPass(ordered, frontier);
  return ordered;
}

GtsEngine::PageRoute GtsEngine::RoutePage(PageId pid) const {
  PageRoute route;
  if (replicate_) {
    // Strategy-S (Section 4.2): every page to every GPU.
    route.last_gpu = machine_.num_gpus - 1;
    return route;
  }
  // The hybrid extension's share, by a deterministic multiplicative hash
  // of the page id.
  const uint32_t h = static_cast<uint32_t>(pid) * 2654435761u;
  if (cpu_ != nullptr && static_cast<double>(h >> 8 & 0xFFFFFF) / 16777216.0 <
                             options_.cpu_assist_fraction) {
    route.cpu = true;
    return route;  // last_gpu stays below first_gpu: no GPU leg
  }
  // Strategy-P's striping (Section 4.1): page j goes to GPU j mod n.
  route.first_gpu = static_cast<int>(pid) % machine_.num_gpus;
  route.last_gpu = route.first_gpu;
  return route;
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
    for (auto& worker : gpu.workers) worker->ra.resize(ra_bytes);
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
    if (gpu.page_cache == nullptr) {
      gpu.page_cache = std::make_unique<PageCache>(
          gpu.device.get(), 0, page_size, options_.cache_policy,
          registry_.get(), "cache.gpu" + std::to_string(g));
      gpu.page_cache->BindPinLog(&pin_events_);
    }
    gpu.page_cache->Open(cache_bytes);
    gpu.cache = gpu.page_cache.get();
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
  recorder_.AddBarrier(0.0);
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
    // completion (reads are shared; per-job attribution of a merged read
    // would be arbitrary).
    job->metrics.io = store_->stats();
    job->metrics.io_queue = io_->stats();
  }
  job->finished = true;
  job->gpus.clear();
}

Status GtsEngine::ProcessPagesBatch(const std::vector<PageId>& ordered) {
  GTS_PROF_SCOPE("engine.process_pages");
  const int n_streams = options_.num_streams;
  for (PageId pid : ordered) {
    const PageRoute route = RoutePage(pid);
    if (route.cpu) {
      GTS_RETURN_IF_ERROR(ProcessPageOnCpu(demand_[pid].front(), pid));
      continue;
    }
    for (int g = route.first_gpu; g <= route.last_gpu; ++g) {
      GpuState& gpu = *gpus_[g];
      const int s = gpu.rr;
      gpu.rr = (gpu.rr + 1) % n_streams;
      GTS_RETURN_IF_ERROR(StreamPageToGpuBatch(pid, g, s));
    }
  }
  return Status::OK();
}

Status GtsEngine::StreamPageToGpuBatch(PageId pid, int g, int s) {
  const TimeModel& tm = machine_.time_model;
  const uint64_t page_size = graph_->config().page_size;
  const PageKind kind = graph_->kind(pid);
  GpuState& gpu = *gpus_[g];
  const int stream_key = StreamKey(g, s);
  const std::vector<JobExec*>& demanders = demand_[pid];
  JobExec* first = demanders.front();

  // Host-side routing against cachedPIDMap (Algorithm 1 line 16). A
  // hit returns an RAII Pin over the cached device page, which the
  // kernels then read in place. Lookups and hits are credited to the
  // first demander, like pages_streamed.
  PageCache::Pin pin;
  if (gpu.cache != nullptr) {
    pin = gpu.cache->Lookup(pid);
    ++first->metrics.cache_lookups;
    if (pin.valid()) ++first->metrics.cache_hits;
  }
  const bool cached = pin.valid();

  // A miss's MMBuf bytes, which the next page's Acquire may evict before
  // the workers run the kernels: copied into ring slots below.
  const uint8_t* staged_bytes = nullptr;
  if (!cached) {
    // A transfer serving one job is that job's trace lane; a transfer
    // serving several is shared infrastructure (-1), so the J1 rule
    // never sees a cross-job edge from the co-served kernels. (demand_
    // groups a job's occurrences together, admission order.)
    const int32_t transfer_job =
        demanders.back() == first ? first->job_id : -1;
    GTS_ASSIGN_OR_RETURN(transfer::StagedPage staged,
                         transfer_->Stage(pid, g, stream_key, transfer_job));
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
                            staged.fetch_op, staged.evicted,
                            recorder_.ops());
      }
      race_->OnPageDelivered(pid);
      // The copy engine reads the staged MMBuf bytes into the stream
      // buffer; fusing with the stream carries the transfer->kernel
      // happens-before edge (CUDA in-stream ordering).
      const int copy = race_->CopyLane(g);
      race_->Join(copy, race_->HostLane());
      race_->BeginOp(copy);
      race_->OnMmbufRead(copy, pid, staged.transfer_op);
      race_->Fuse(copy, race_->StreamLane(g, s, stream_key));
    }
    staged_bytes = staged.data;
  }
  if (demanders.back() != first) {
    // Registered at the first shared page: snapshots carry the key only
    // once a page was shared.
    if (shared_page_hits_ == nullptr) {
      shared_page_hits_ = &registry_->GetCounter("cache.shared_page_hits");
    }
    for (size_t i = 1; i < demanders.size(); ++i) {
      if (demanders[i] == demanders[i - 1]) continue;  // the job's repeat
      ++demanders[i]->metrics.shared_page_hits;
      shared_page_hits_->Add();
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
    jl.kernel = job->kernel;
    jl.slice = &job->gpus[static_cast<size_t>(g)];
    jl.level = job->cur_level();
    jl.job_id = job->job_id;
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

  // Hand each launch to its job's worker. demand_ lists the page's jobs
  // in `running` order, so a worker's launches form one contiguous run.
  // A hit is read in place by every worker. A miss is copied into a ring
  // slot of each worker with a run: the first copy from MMBuf, with the
  // ingest deltas overlaid once (the MMBuf copy stays the installed base
  // image), the later ones from the first, so every co-served job reads
  // the same patched epoch-consistent bytes.
  const uint8_t* first_copy = nullptr;
  for (size_t begin = 0; begin < n_launches;) {
    const int w = demanders[begin]->worker;
    size_t end = begin + 1;
    while (end < n_launches && demanders[end]->worker == w) ++end;
    GpuState::Worker& worker = *gpu.workers[static_cast<size_t>(w)];
    const uint8_t* page_bytes = cached ? pin.data() : nullptr;
    if (!cached) {
      // The slot's buffer is the driver's to fill until the run is
      // enqueued.
      uint8_t* dst = worker.stream.buffer(worker.stream.Reserve());
      if (first_copy == nullptr) {
        std::memcpy(dst, staged_bytes, page_size);
        if (ingest_ != nullptr) (void)ingest_->Overlay(pid, dst);
        first_copy = dst;
        if (insert_into_cache) {
          // Device-internal copy; deliberately not a timeline op (it does
          // not cross PCI-E). An evicting insert may reuse the buffer of a
          // page a queued kernel of any worker reads, so they all drain
          // first (with every pin released, as inline). Failure leaves the
          // page on the streaming path.
          if (gpu.cache->InsertEvicts(pid)) {
            for (auto& other : gpu.workers) other->stream.Synchronize();
          }
          (void)gpu.cache->Insert(pid, dst,
                                  ingest_ != nullptr ? ingest_->PageVersion(pid)
                                                     : 0);
        }
      } else {
        std::memcpy(dst, first_copy, page_size);
      }
      page_bytes = dst;
    }
    JobLaunch* const run_begin = launch_begin + begin;
    const size_t run_size = end - begin;
    uint8_t* const ra_dst = worker.ra.data();
    worker.stream.Enqueue([this, page_bytes, ra_dst, run_begin, run_size,
                           kind, g, s, race_lane, pid] {
      const TimeModel& tm = machine_.time_model;
      const PageView view(page_bytes, graph_->config());
      for (JobLaunch* jl = run_begin; jl != run_begin + run_size; ++jl) {
        JobGpuSlice& slice = *jl->slice;
        if (jl->ra_src != nullptr) {
          std::memcpy(ra_dst, jl->ra_src, jl->ra_bytes);
        }
        KernelContext ctx;
        ctx.rvt = &graph_->rvt();
        ctx.wa = slice.wa_buf.data();
        ctx.wa_begin = slice.wa_begin;
        ctx.wa_end = slice.wa_end;
        ctx.ra = jl->ra_src != nullptr ? ra_dst : nullptr;
        ctx.ra_start_vid = jl->ra_start_vid;
        ctx.cur_level = jl->level;
        ctx.next_pid_set = slice.local_next.get();
        if (slice.local_next != nullptr && slice.local_next->counting()) {
          ctx.out_degrees = out_degrees_.data();
        }
        ctx.micro = options_.micro;
        if (race_ != nullptr) {
          ctx.race_site = {race_.get(), race_lane,
                           analysis::RaceDetector::WaDomain(g, jl->job_id),
                           jl->kidx, pid};
        }
        GtsKernel* kernel = jl->kernel;
        const WorkStats work = kind == PageKind::kSmall
                                   ? kernel->RunSp(view, ctx)
                                   : kernel->RunLp(view, ctx);
        slice.stream_work[static_cast<size_t>(s)] += work;
        jl->duration =
            tm.kernel_launch_overhead +
            static_cast<double>(work.warp_cycles) * tm.warp_cycle_seconds +
            static_cast<double>(work.mem_transactions) *
                kernel->seconds_per_mem_transaction(tm);
      }
    });
    begin = end;
  }
  // The bytes of a hit stay put without the lease: nothing evicts or
  // invalidates a cached page before the workers drain. Releasing here
  // logs the pin events in inline order.
  pin.Release();
  // The race detector stamps WA accesses with the lane's clock, which the
  // next launch advances: run each page's kernels before the next issue.
  if (race_ != nullptr) {
    for (auto& worker : gpu.workers) worker->stream.Synchronize();
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
    // Ownership for the pass: job i of R belongs to worker i * W / R on
    // every GPU, so each job's WA slices, local nextPIDSets and stream
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
        for (PageId pid : job->frontier->ToVector()) {
          // A page whose activated vertices have no out-edges between
          // them can expand nothing: skipping it drops no WA update.
          if (options_.dispatch.skip_edgeless_pages &&
              job->frontier->CountOf(pid) == 0) {
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
        // reordered per dispatch.order.
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
    launches_.reserve(max_launches *
                      static_cast<size_t>(replicate_ ? machine_.num_gpus : 1));
    Status pass_status = ProcessPagesBatch(ordered);
    DrainWorkers();
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
    for (auto& worker : gpu->workers) worker->stream.Park();
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
