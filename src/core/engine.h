// The GTS framework engine (Algorithm 1).
//
// A job (JobScheduler::Submit / SubmitPass, reached through
// GtsEngine::scheduler()) executes a kernel over a PagedGraph: the engine
// places WA in (simulated) device memory, then streams topology pages and
// RA subvectors to the GPU(s) over k asynchronous streams, calling K_SP /
// K_LP per page. For BFS-like kernels it iterates level by level over the
// page-granular frontier (nextPIDSet) with the device page cache enabled;
// for PageRank-like kernels it makes one pass over every page (callers
// loop for multi-iteration algorithms).
//
// Execution is real (results come from actually running the kernels);
// elapsed time is computed by the deterministic discrete-event scheduler
// against the machine's TimeModel (see gpu/schedule.h).
#ifndef GTS_CORE_ENGINE_H_
#define GTS_CORE_ENGINE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/analysis_options.h"
#include "analysis/event_log.h"
#include "analysis/race_detector.h"
#include "analysis/schedule_validator.h"
#include "analysis/sync/sync.h"
#include "common/status.h"
#include "core/dispatch/dispatch_options.h"
#include "core/frontier.h"
#include "core/kernel.h"
#include "core/machine_config.h"
#include "core/page_cache.h"
#include "core/run_metrics.h"
#include "core/run_report.h"
#include "gpu/device.h"
#include "gpu/schedule.h"
#include "gpu/stream.h"
#include "ingest/edge_stream.h"
#include "ingest/ingest_options.h"
#include "io/io_engine.h"
#include "obs/metrics.h"
#include "storage/page_store.h"
#include "storage/paged_graph.h"
#include "transfer/page_transfer.h"
#include "transfer/transfer_options.h"

namespace gts {

class JobScheduler;
struct JobExec;

/// Multi-GPU strategies of Section 4.
enum class Strategy : uint8_t {
  kPerformance,  ///< replicate WA, partition the page stream (Section 4.1)
  kScalability,  ///< partition WA, replicate the page stream (Section 4.2)
};

std::string_view StrategyName(Strategy strategy);

/// Engine knobs (everything else is in MachineConfig).
struct GtsOptions {
  Strategy strategy = Strategy::kPerformance;
  int num_streams = 16;  ///< GPU streams per device (Figure 10 sweeps this)
  MicroStrategy micro = MicroStrategy::kEdgeCentric;
  bool enable_cache = true;
  CachePolicy cache_policy = CachePolicy::kPinned;
  /// Device bytes reserved for the page cache; kAutoCacheBytes = all free
  /// device memory after WABuf and the stream buffers.
  uint64_t cache_bytes = kAutoCacheBytes;
  /// Inert: every engine runs each GPU's kernels on host workers
  /// (gpu::Stream; one per GPU, up to one per job in a multi-job epoch)
  /// with bit-identical results. Kept only because the benchmark's
  /// workload setup assigns it.
  bool use_stream_threads = false;
  /// Retain the full per-op timeline in RunMetrics (Figure 4).
  bool keep_timeline = false;
  /// Safety valve for traversal loops.
  int max_levels = 100000;

  /// Upper bound on jobs the JobScheduler executes concurrently in one
  /// batch epoch (shared-topology streaming: one merged page demand per
  /// pass, private WA partition per job). Every submission runs as an
  /// epoch; with the default 1 each epoch holds exactly one job, whose
  /// ops stay untagged. Multi-job epochs run on the same push loop as a
  /// single job; they are incompatible with cpu_assist_fraction > 0,
  /// which Validate() rejects.
  int max_concurrent_jobs = 1;

  /// Section 9 future-work extension: fraction of the page stream the
  /// host CPUs co-process alongside the GPUs (TOTEM-style hybrid, but
  /// page-granular and with no graph partitioning to tune). 0 disables
  /// co-processing, which is the paper's GTS. Requires Strategy-P.
  double cpu_assist_fraction = 0.0;

  /// How a pass is dispatched (src/core/dispatch/): the page order and
  /// the traversal levels' edgeless-page skip. The strategy alone routes
  /// pages to GPUs. The defaults reproduce the paper's schedule
  /// bit-for-bit; the SP/LP-interleaving ablation is
  /// `dispatch.order = PageOrderKind::kInterleaved`.
  DispatchOptions dispatch;

  /// The storage read path (src/io/): sequential-read merging, off by
  /// default (the paper's pricing).
  io::IoOptions io;

  /// How topology crosses PCI-E (src/transfer/): page_stream (the
  /// paper's whole-page streaming), direct (EMOGI-style cache-line
  /// fetches of active adjacency lists), or auto (per-level cost-model
  /// crossover).
  transfer::TransferOptions transfer;

  /// gts::analysis knobs: the always-on schedule validator and, when the
  /// build carries -DGTS_RACE_CHECK=ON, the logical race detector. Both
  /// report into RunMetrics::analysis and the `analysis.*` counters;
  /// fail_on_* escalates findings to a job error.
  analysis::AnalysisOptions analysis;

  /// gts::ingest (src/ingest/): streaming edge insertions/deletions over
  /// the frozen paged graph. Disabled by default; when enabled the engine
  /// constructs an EdgeStream (reach it via GtsEngine::edge_stream()),
  /// publishes buffered updates at run/pass boundaries, and overlays
  /// pending delta chains onto every staged page.
  ingest::IngestOptions ingest;

  static constexpr uint64_t kAutoCacheBytes = ~uint64_t{0};
  /// Stream-key encoding limit (gpu * kMaxStreamsPerGpu + stream).
  static constexpr int kMaxStreamsPerGpu = 4096;

  /// Checks every option invariant against the target machine:
  /// num_streams in [1, kMaxStreamsPerGpu], max_levels >= 1,
  /// cpu_assist_fraction in [0, 1), an explicit cache_bytes that fits in
  /// device memory, a machine with at least one GPU, and the ingest
  /// block (see engine.cc). The single
  /// source of option validation; the engine constructor calls it and
  /// refuses (aborts) on failure, so construct-time callers that need a
  /// recoverable error should Validate() first. Workload-dependent
  /// checks (memory capacity per kernel, hybrid strategy rules) stay at
  /// run time, where the kernel is known.
  Status Validate(const MachineConfig& machine) const;
};

/// The GTS engine. One engine serves one graph + store + machine; its
/// scheduler runs any number of jobs (e.g. one per PageRank iteration).
class GtsEngine {
 public:
  GtsEngine(const PagedGraph* graph, PageStore* store, MachineConfig machine,
            GtsOptions options);
  ~GtsEngine();

  GtsEngine(const GtsEngine&) = delete;
  GtsEngine& operator=(const GtsEngine&) = delete;

  /// The engine's job scheduler, the one way to run a kernel:
  /// Submit(kernel, JobOptions) runs one full scan or one complete
  /// traversal (JobOptions::source seeds the frontier), SubmitPass
  /// streams an explicit page list, and RunJob/RunPassJob fold either
  /// into a RunReport. Jobs run concurrently up to max_concurrent_jobs,
  /// can be cancelled, or polled with TryJoin().
  JobScheduler& scheduler() { return *scheduler_; }

  const PagedGraph* graph() const { return graph_; }
  int num_gpus() const { return machine_.num_gpus; }
  const MachineConfig& machine() const { return machine_; }
  const GtsOptions& options() const { return options_; }

  /// The engine's metrics registry: cumulative counters over the engine's
  /// lifetime, refreshed at the end of every job. Shared so
  /// sinks (storage devices, profiling) may outlive the engine.
  const std::shared_ptr<obs::MetricsRegistry>& metrics_registry() const {
    return registry_;
  }

  /// The streaming-ingestion subsystem (GtsOptions::ingest.enabled);
  /// null when ingestion is disabled. Producer threads Append() update
  /// batches here at any time; the engine publishes them at run/pass
  /// boundaries. Use scheduler().QuiesceIngest() for a full drain +
  /// compaction at a point where no job is running.
  ingest::EdgeStream* edge_stream() { return ingest_.get(); }

  /// True when every GPU worker is blocked waiting for work, as it is
  /// whenever no run is in progress: no engine thread spins between runs.
  bool WorkersBlocked() const;

  /// Host workers per GPU, fixed at construction: min(max_concurrent_jobs,
  /// max(1, (host cores - 1) / num_gpus)). A multi-job epoch gives each
  /// running job one of them per pass; a one-job engine has one.
  int workers_per_gpu() const { return workers_per_gpu_; }

 private:
  friend class JobScheduler;

  struct GpuState;
  struct JobLaunch;

  /// The engine's run body (Algorithm 1), reached for every scheduler
  /// batch -- a single submission is an epoch of one. The admitted jobs
  /// share the streaming machinery (merged per-pass page demand, shared
  /// cache/io/copy engines) while each owns a private WA partition and
  /// metrics scope. Per-job outcomes land in each JobExec::status/metrics
  /// (finished set); jobs left !finished were deferred by WA admission
  /// control. Returns non-OK only for engine bugs, never for per-job
  /// failures.
  Status RunJobBatch(const std::vector<JobExec*>& jobs);

  // --- RunJobBatch helpers ---
  /// Allocates job `slot`'s WA replicas (+ local nextPIDSets for
  /// traversal kernels): one partition per GPU, then under CPU assist
  /// the host CPUs' whole-graph replica in host memory. On failure every
  /// partial replica is released and the allocation error returned (the
  /// admission-control signal).
  Status AdmitJobSlices(JobExec* job, int slot);
  /// Takes the device memory of the per-stream SP/LP/RA buffers (RA sized
  /// for the largest admitted ra_bytes_per_vertex) and resets stream
  /// state.
  Status SetupSharedStreamBuffers(uint32_t max_ra_b);
  /// Starts host co-processing for `kernel` (cpu_assist_fraction > 0;
  /// Validate() keeps such epochs to one job): resets the lane cursor.
  /// FailedPrecondition for Strategy-S scans on several GPUs.
  Status SetupCpuAssist(const GtsKernel* kernel);
  /// Per-GPU shared page cache over the memory left after admission.
  void SetupCaches();
  void ReleaseBatchBuffers(const std::vector<JobExec*>& jobs);
  void ReleaseBuffers();
  /// WA upload/download for every replica of one job; only the GPU
  /// replicas record copy ops, which carry the job's tag.
  void UploadWaJob(JobExec* job);
  void DownloadWaJob(JobExec* job);
  /// Per-level sync of one traversal job: its local nextPIDSets to the
  /// host and, with several WA replicas, the level's WA delta exchange.
  void SyncJobLevel(JobExec* job);
  /// Completes one job inside a running epoch: WA download (ok jobs),
  /// per-job work/io stat harvest, replica release, finished flag.
  void FinishJobInEpoch(JobExec* job);
  /// Race-detector report of one whole-replica WA access by `job` to
  /// its replica `r` (a GPU's, or the host's when r == num_gpus). No-op
  /// without a detector.
  void NoteWaReplica(const JobExec& job, int r, int lane,
                     analysis::AccessClass cls, gpu::OpIndex op);
  /// Records one copy-engine op of `bytes` at `bandwidth` on GPU `gpu`,
  /// tagged `job` (TimelineOp::job semantics).
  gpu::OpIndex RecordCopy(gpu::OpKind kind, int gpu, uint64_t bytes,
                          double bandwidth, int32_t job, int stream_key = -1,
                          PageId page = kInvalidPageId);
  /// The dispatch loop (Algorithm 1's push over k streams): every page
  /// carries the list of jobs demanding it (demand_), and one
  /// stream/cache access services them all. Each GPU leg takes the next
  /// stream of that GPU's round-robin cursor. Pages the hybrid extension
  /// routes to the host run on the CPU lanes.
  Status ProcessPagesBatch(const std::vector<PageId>& ordered);
  /// Streams page `pid` to stream `s` of GPU `g` -- staged once and
  /// copied into a ring slot of each GPU worker that owns a demanding
  /// job, or read in place from the cache -- and enqueues one kernel
  /// launch per demanding job on its job's worker. A cache miss stages
  /// from `*fetch`, the pass's storage read of the page, acquiring it
  /// first if no earlier leg of the page did.
  Status StreamPageToGpuBatch(PageId pid, int g, int s,
                              std::optional<io::IoEngine::Fetched>* fetch);
  /// Epoch wrap-up: simulate once, run the analysis layer (race-report
  /// harvest, schedule validator including the job-isolation rule, lock
  /// registry drain) over the merged timeline, stamp every finished job
  /// with the epoch makespan/busy stats, publish, escalate findings per
  /// GtsOptions::analysis, release buffers.
  void FinalizeBatchEpoch(const std::vector<JobExec*>& jobs);

  /// Per-GPU WA ownership range under the active strategy. Traversal
  /// kernels always replicate WA (they read arbitrary neighbors' state).
  void WaRange(int g, bool traversal, VertexId* begin, VertexId* end) const;

  /// One page's CPU/GPU routing under the active strategy: every GPU
  /// when replicate_, else the CPU-assist hash (never true at a
  /// cpu_assist_fraction of 0), else GPU pid % num_gpus. The single
  /// source of routing truth for the dispatch loop.
  struct PageRoute {
    bool cpu = false;   ///< hybrid extension routes it to the host CPUs
    int first_gpu = 0;  ///< inclusive
    int last_gpu = -1;  ///< inclusive (spans every GPU when replicated)
  };
  PageRoute RoutePage(PageId pid) const;

  /// Processes one page of `job` on the next host CPU lane (no PCI-E
  /// traffic), against the job's host replica.
  Status ProcessPageOnCpu(JobExec* job, PageId pid);

  /// A launch of `job`'s kernel against page `pid` on its replica `r`,
  /// counted as one of the job's SP or LP kernel calls.
  JobLaunch MakeLaunch(JobExec* job, PageId pid, int r);
  /// Runs one launch against the page bytes `view`: K_SP or K_LP over the
  /// launch's replica, its work added to the replica's `lane` (a GPU
  /// stream or a host lane) and its kernel time priced into
  /// jl->duration. `race_lane` is the race detector's lane of the launch.
  void RunLaunch(const PageView& view, PageId pid, int lane, int race_lane,
                 JobLaunch* jl) const;

  /// Publishes one run's counters cumulatively into registry_.
  void PublishMetrics(const RunMetrics& metrics);

  /// Stage 0 of every pass: builds each running job's page list (the
  /// level's frontier pages, an explicit pass's pages or every page),
  /// merges them into demand_ by weighted round robin, orders the merged
  /// pages (OrderPages), starts the io engine's pass (resetting the
  /// device heads) and lets the page transfer pick the pass's mode.
  /// Pages are read from storage later, when the dispatch loop demands
  /// them.
  std::vector<PageId> PlanPass(const std::vector<JobExec*>& running);

  /// True when traversal frontiers should count active edges per page:
  /// the frontier-density order, dispatch.skip_edgeless_pages and the
  /// direct and auto transfer modes read them.
  bool CountFrontier() const;

  /// Fills out_degrees_ (per-vertex out-degree table) on first use; the
  /// weight source for active-edge frontier counting. With ingestion
  /// enabled the table is rebuilt whenever the publish epoch moved, then
  /// patched with the accumulated per-vertex degree deltas.
  void BuildDegreeTable();

  /// Safe-point ingest publish: drains buffered updates into delta
  /// chains + compacts the chains at the threshold, then invalidates
  /// cached copies of every changed page on every GPU (in-flight pins keep
  /// their stale bytes until released). No-op when ingestion is
  /// disabled. Must only run at pass/level boundaries, after
  /// DrainWorkers: a queued kernel may read a cached page in place.
  void PublishIngest();

  /// Scheduler-only (driver-exclusive) full drain: flush + publish +
  /// compact until every delta chain is empty. See
  /// JobScheduler::QuiesceIngest.
  Status QuiesceIngestExclusive();

  /// The pass barrier on the host: waits until every worker of every GPU
  /// ran its queued launches, then adds their kernel times to the
  /// recorded ops.
  void DrainWorkers();

  const PagedGraph* graph_;
  PageStore* store_;
  MachineConfig machine_;
  GtsOptions options_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  /// Strategy-S on more than one GPU: every page goes to every GPU (and
  /// the CPU-assist route is off). With one GPU the strategies stream
  /// alike, so Strategy-S stripes and keeps the CPU route.
  bool replicate_;
  std::unique_ptr<io::IoEngine> io_;
  /// The H2D topology transfer (GtsOptions::transfer.mode); constructed
  /// after io_, whose lifetime it depends on.
  std::unique_ptr<transfer::PageTransfer> transfer_;
  std::unique_ptr<JobScheduler> scheduler_;
  /// Streaming-ingestion subsystem; null unless GtsOptions::ingest.enabled.
  /// Constructed after io_ (its delta/rewrite persistence goes through
  /// the priced io write path).
  std::unique_ptr<ingest::EdgeStream> ingest_;

  /// Per-vertex out-degrees; built lazily for active-edge counting.
  std::vector<uint32_t> out_degrees_;
  /// Ingest publish epoch out_degrees_ was built against (ingest only).
  uint64_t degree_epoch_ = 0;

  std::vector<std::unique_ptr<GpuState>> gpus_;
  int workers_per_gpu_ = 1;
  int cpu_rr_ = 0;  // round-robin host lane cursor under CPU assist
  uint32_t max_slots_per_page_ = 0;

  // Per-pass dispatch scratch, dense and reused across passes so a pass
  // does no per-page hashing or allocation once capacities settle.
  /// Jobs demanding each page in the current pass, in admission order;
  /// indexed by PageId and emptied again after the pass.
  std::vector<std::vector<JobExec*>> demand_;
  /// Dedup stamps for the weighted-round-robin merge: a page is already
  /// in the pass's merged order iff merge_stamp_[pid] == merge_epoch_.
  std::vector<uint32_t> merge_stamp_;
  uint32_t merge_epoch_ = 0;
  /// Kernel launches recorded by the current pass, one per (page, GPU,
  /// demanding job). Reserved before the pass for its worst case, so
  /// the element ranges handed to the workers never move.
  std::vector<JobLaunch> launches_;
  /// The union of the running traversal jobs' frontiers, the pass's
  /// frontier when more than one traversal job runs; built on first use.
  std::unique_ptr<PidSet> merged_frontier_;
  /// `cache.shared_page_hits`, resolved at the first shared page.
  obs::Counter* shared_page_hits_ = nullptr;

  // Schedule recording. Only the driver records; workers report kernel
  // durations through launches_, which DrainWorkers folds in.
  gpu::ScheduleRecorder recorder_;
  gpu::OpIndex RecordOp(gpu::TimelineOp op);

  // gts::analysis wiring. The pin event log of every PageCache feeds the
  // always-on schedule validator; it is cleared at epoch start and
  // drained by FinalizeBatchEpoch.
  analysis::PinEventLog pin_events_;
  /// The happens-before detector; constructed only when the build
  /// carries -DGTS_RACE_CHECK=ON and GtsOptions::analysis.race_check is
  /// set, so every hook below is one null test otherwise.
  std::unique_ptr<analysis::RaceDetector> race_;
};

}  // namespace gts

#endif  // GTS_CORE_ENGINE_H_
