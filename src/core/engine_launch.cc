#include <cstring>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "core/engine_internal.h"
#include "obs/prof.h"

namespace gts {

Status GtsEngine::ProcessPagesBatch(const std::vector<PageId>& ordered) {
  GTS_PROF_SCOPE("engine.process_pages");
  const int n_streams = options_.num_streams;
  for (PageId pid : ordered) {
    const PageRoute route = RoutePage(pid);
    if (route.cpu) {
      GTS_RETURN_IF_ERROR(ProcessPageOnCpu(demand_[pid].front(), pid));
      continue;
    }
    // The pass's one storage read of the page, taken by the first GPU
    // leg that misses its cache; a Strategy-S page's later legs reuse it.
    std::optional<io::IoEngine::Fetched> fetch;
    for (int g = route.first_gpu; g <= route.last_gpu; ++g) {
      GpuState& gpu = *gpus_[g];
      const int s = gpu.rr;
      gpu.rr = (gpu.rr + 1) % n_streams;
      GTS_RETURN_IF_ERROR(StreamPageToGpuBatch(pid, g, s, &fetch));
    }
  }
  return Status::OK();
}

Status GtsEngine::StreamPageToGpuBatch(
    PageId pid, int g, int s, std::optional<io::IoEngine::Fetched>* fetch) {
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
    const bool read_here = !fetch->has_value();
    if (read_here) {
      GTS_ASSIGN_OR_RETURN(*fetch, io_->Acquire(pid));
    }
    const io::IoEngine::Fetched& read = **fetch;
    const transfer::StagedPage staged =
        transfer_->Stage(pid, read, g, stream_key, transfer_job);
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
      if (read_here && !read.buffer_hit) {
        race_->OnPageStaged(static_cast<int>(read.device_index), pid,
                            read.fetch_op, read.evicted, recorder_.ops());
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
    staged_bytes = read.data;
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
    JobLaunch jl = MakeLaunch(job, pid, g);
    if (jl.ra != nullptr) {
      const uint32_t covered =
          kind == PageKind::kSmall ? graph_->view(pid).num_slots() : 1;
      RecordCopy(gpu::OpKind::kH2DStream, g,
                 static_cast<uint64_t>(covered) *
                     job->kernel->ra_bytes_per_vertex(),
                 tm.c2, job->job_id, stream_key, pid);
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
    gpu::Stream& worker = *gpu.workers[static_cast<size_t>(w)];
    const uint8_t* page_bytes = cached ? pin.data() : nullptr;
    if (!cached) {
      // The slot's buffer is the driver's to fill until the run is
      // enqueued.
      uint8_t* dst = worker.buffer(worker.Reserve());
      if (first_copy == nullptr) {
        std::memcpy(dst, staged_bytes, page_size);
        if (ingest_ != nullptr) (void)ingest_->Overlay(pid, dst);
        first_copy = dst;
        if (insert_into_cache) {
          // Device-internal copy; deliberately not a timeline op (it does
          // not cross PCI-E). The insert never touches a resident page,
          // so queued kernels need not drain. Failure leaves the page on
          // the streaming path.
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
    worker.Enqueue([this, page_bytes, run_begin, run_size, s, race_lane,
                    pid] {
      const PageView view(page_bytes, graph_->config());
      for (JobLaunch* jl = run_begin; jl != run_begin + run_size; ++jl) {
        RunLaunch(view, pid, s, race_lane, jl);
      }
    });
    begin = end;
  }
  // The bytes of a hit stay put without the lease: the cache never
  // evicts, and invalidation waits for a safe point after the workers
  // drain. Releasing here logs the pin events in inline order.
  pin.Release();
  // The race detector stamps WA accesses with the lane's clock, which the
  // next launch advances: run each page's kernels before the next issue.
  if (race_ != nullptr) {
    for (auto& worker : gpu.workers) worker->Synchronize();
  }
  return Status::OK();
}

Status GtsEngine::ProcessPageOnCpu(JobExec* job, PageId pid) {
  GTS_ASSIGN_OR_RETURN(io::IoEngine::Fetched fetch, io_->Acquire(pid));

  const int lane = cpu_rr_;
  cpu_rr_ = (cpu_rr_ + 1) % machine_.time_model.cpu_worker_threads;

  // Recorded before execution (duration patched in afterwards, like the
  // GPU path) so the op index exists for race-site attribution.
  JobLaunch jl = MakeLaunch(job, pid, machine_.num_gpus);
  gpu::TimelineOp kop;
  kop.kind = gpu::OpKind::kKernel;
  kop.stream_key = (1 << 20) + lane;  // dedicated CPU lanes
  kop.resource = {gpu::ResourceId::Type::kHostCpuPool, 0};
  kop.dep0 = fetch.fetch_op;
  kop.page = pid;
  kop.duration = 0.0;
  kop.job = job->job_id;
  jl.kidx = RecordOp(kop);
  io_->NoteReader(fetch, jl.kidx);

  int race_lane = 0;
  if (race_ != nullptr) {
    if (!fetch.buffer_hit) {
      race_->OnPageStaged(static_cast<int>(fetch.device_index), pid,
                          fetch.fetch_op, fetch.evicted, recorder_.ops());
    }
    race_->OnPageDelivered(pid);
    race_lane = race_->CpuLane(lane, (1 << 20) + lane);
    race_->BeginOp(race_lane);
    race_->Join(race_lane, race_->HostLane());
    // The CPU lane reads the page straight out of MMBuf.
    race_->OnMmbufRead(race_lane, pid, jl.kidx);
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

  RunLaunch(PageView(page_data, graph_->config()), pid, lane, race_lane, &jl);
  recorder_.op(jl.kidx).duration += jl.duration;
  ++job->metrics.cpu_pages;
  return Status::OK();
}

GtsEngine::JobLaunch GtsEngine::MakeLaunch(JobExec* job, PageId pid, int r) {
  JobLaunch jl;
  jl.kernel = job->kernel;
  jl.replica = &job->replicas[static_cast<size_t>(r)];
  jl.level = job->cur_level();
  jl.job_id = job->job_id;
  jl.gpu = r;
  const uint32_t ra_b = job->kernel->ra_bytes_per_vertex();
  const uint8_t* host_ra = job->kernel->host_ra();
  if (ra_b > 0 && host_ra != nullptr) {
    jl.ra = host_ra +
            static_cast<uint64_t>(graph_->rvt().entry(pid).start_vid) * ra_b;
  }
  if (graph_->kind(pid) == PageKind::kSmall) {
    ++job->metrics.sp_kernel_calls;
  } else {
    ++job->metrics.lp_kernel_calls;
  }
  return jl;
}

void GtsEngine::RunLaunch(const PageView& view, PageId pid, int lane,
                          int race_lane, JobLaunch* jl) const {
  const TimeModel& tm = machine_.time_model;
  const bool host = jl->gpu == machine_.num_gpus;
  JobReplica& replica = *jl->replica;
  KernelContext ctx;
  ctx.rvt = &graph_->rvt();
  ctx.wa = replica.wa_buf.data();
  ctx.wa_begin = replica.wa_begin;
  ctx.wa_end = replica.wa_end;
  ctx.ra = jl->ra;
  ctx.cur_level = jl->level;
  ctx.next_pid_set = replica.local_next.get();
  if (replica.local_next != nullptr && replica.local_next->counting()) {
    ctx.out_degrees = out_degrees_.data();
  }
  ctx.micro = options_.micro;
  if (race_ != nullptr) {
    ctx.race_site = {race_.get(), race_lane,
                     host ? analysis::RaceDetector::kCpuWaDomain
                          : analysis::RaceDetector::WaDomain(jl->gpu,
                                                             jl->job_id),
                     jl->kidx, pid};
  }
  GtsKernel* kernel = jl->kernel;
  const WorkStats work = graph_->kind(pid) == PageKind::kSmall
                             ? kernel->RunSp(view, ctx)
                             : kernel->RunLp(view, ctx);
  replica.stream_work[static_cast<size_t>(lane)] += work;
  // A host lane is one worker core: no launch overhead and no PCI-E, but
  // no warp parallelism or coalescing either.
  const double cycle_scale = host ? tm.cpu_cycle_multiplier : 1.0;
  const double mem_scale = host ? tm.cpu_mem_multiplier : 1.0;
  jl->duration =
      (host ? 0.0 : tm.kernel_launch_overhead) +
      static_cast<double>(work.warp_cycles) * tm.warp_cycle_seconds *
          cycle_scale +
      static_cast<double>(work.mem_transactions) *
          kernel->seconds_per_mem_transaction(tm) * mem_scale;
}

void GtsEngine::DrainWorkers() {
  {
    // How much kernel time the staging of the pass left exposed.
    GTS_PROF_SCOPE("engine.drain");
    for (auto& gpu : gpus_) {
      for (auto& worker : gpu->workers) worker->Synchronize();
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
      if (!worker->blocked()) return false;
    }
  }
  return true;
}

}  // namespace gts
