// The GTS framework engine (Algorithm 1).
//
// Run() executes a kernel over a PagedGraph: it places WA in (simulated)
// device memory, then streams topology pages and RA subvectors to the
// GPU(s) over k asynchronous streams, calling K_SP / K_LP per page. For
// BFS-like kernels it iterates level by level over the page-granular
// frontier (nextPIDSet) with the device page cache enabled; for
// PageRank-like kernels it makes one pass over every page (callers loop
// for multi-iteration algorithms).
//
// Execution is real (results come from actually running the kernels);
// elapsed time is computed by the deterministic discrete-event scheduler
// against the machine's TimeModel (see gpu/schedule.h).
#ifndef GTS_CORE_ENGINE_H_
#define GTS_CORE_ENGINE_H_

#include <cstdint>
#include <limits>
#include <memory>
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
#include "transfer/transfer_backend.h"
#include "transfer/transfer_options.h"

namespace gts {

class DispatchPipeline;
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
  /// Execute kernels on real asynchronous gpu::Streams (worker threads)
  /// instead of inline. Results are equivalent; inline is deterministic
  /// to the bit for floating-point kernels.
  bool use_stream_threads = false;
  /// Retain the full per-op timeline in RunMetrics (Figure 4).
  bool keep_timeline = false;
  /// Safety valve for traversal loops.
  int max_levels = 100000;

  /// Upper bound on jobs the JobScheduler executes concurrently in one
  /// batch epoch (shared-topology streaming: one merged page demand per
  /// pass, private WA partition per job). Every submission runs as an
  /// epoch; with the default 1 each epoch holds exactly one job, whose
  /// ops stay untagged. Values > 1 require an asynchronous dispatch path
  /// (use_stream_threads or dispatch.work_stealing) and are incompatible
  /// with cpu_assist_fraction > 0; Validate() rejects those combinations
  /// with actionable messages.
  int max_concurrent_jobs = 1;

  /// Section 9 future-work extension: fraction of the page stream the
  /// host CPUs co-process alongside the GPUs (TOTEM-style hybrid, but
  /// page-granular and with no graph partitioning to tune). 0 disables
  /// co-processing, which is the paper's GTS. Requires Strategy-P.
  double cpu_assist_fraction = 0.0;

  /// The three-stage dispatch pipeline (src/core/dispatch/): page
  /// ordering, GPU partitioning, stream assignment. The defaults
  /// reproduce the paper's schedule bit-for-bit; the SP/LP-interleaving
  /// ablation that used to be `interleave_sp_lp` is now
  /// `dispatch.order = PageOrderKind::kInterleaved`.
  DispatchOptions dispatch;

  /// The storage I/O engine (src/io/): per-device queue depth, in-device
  /// reorder policy, prefetch in-flight bound. The depth-1 FIFO default
  /// reproduces the classic synchronous fetch schedule bit-for-bit.
  io::IoOptions io;

  /// The H2D topology-transfer backend (src/transfer/): page_stream
  /// (the paper's whole-page streaming; byte-identical to the
  /// pre-backend engine), direct (EMOGI-style cache-line fetches of
  /// active adjacency lists), or auto (per-level cost-model crossover).
  transfer::TransferOptions transfer;

  /// gts::analysis knobs: the always-on schedule validator and, when the
  /// build carries -DGTS_RACE_CHECK=ON, the logical race detector. Both
  /// report into RunMetrics::analysis and the `analysis.*` counters;
  /// fail_on_* escalates findings to a Run() error.
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
  /// device memory, a machine with at least one GPU, and a dispatch
  /// partition kind compatible with the strategy (see engine.cc). The
  /// single
  /// source of option validation; the engine constructor calls it and
  /// refuses (aborts) on failure, so construct-time callers that need a
  /// recoverable error should Validate() first. Workload-dependent
  /// checks (memory capacity per kernel, hybrid strategy rules) stay at
  /// Run() time where the kernel is known.
  Status Validate(const MachineConfig& machine) const;
};

/// The GTS engine. One engine serves one graph + store + machine; Run()
/// may be called repeatedly (e.g. once per PageRank iteration).
class GtsEngine {
 public:
  GtsEngine(const PagedGraph* graph, PageStore* store, MachineConfig machine,
            GtsOptions options);
  ~GtsEngine();

  GtsEngine(const GtsEngine&) = delete;
  GtsEngine& operator=(const GtsEngine&) = delete;

  /// Executes one pass (full scan) or one complete traversal (level loop).
  /// `source` seeds the frontier for traversal kernels (host WA must
  /// already mark it, e.g. LV[source] = 0). A non-negative
  /// `max_levels_override` truncates a traversal after that many level
  /// passes (k-hop neighborhood queries); -1 uses GtsOptions::max_levels.
  Result<RunMetrics> Run(GtsKernel* kernel,
                         VertexId source = kInvalidVertexId,
                         int max_levels_override = -1);

  /// Streams exactly `pages` (one pass, any kernel type) at traversal level
  /// `level`. Used for algorithm phases that drive their own page sets,
  /// e.g. the backward sweep of betweenness centrality.
  Result<RunMetrics> RunPass(GtsKernel* kernel,
                             const std::vector<PageId>& pages,
                             uint32_t level = 0);

  /// The engine's job scheduler: the serving API. Run()/RunPass() above
  /// are thin shims over scheduler().Submit(...).Wait(); use the
  /// scheduler directly to run jobs concurrently (max_concurrent_jobs),
  /// cancel them, or poll with TryJoin().
  JobScheduler& scheduler() { return *scheduler_; }

  const PagedGraph* graph() const { return graph_; }
  int num_gpus() const { return machine_.num_gpus; }
  const MachineConfig& machine() const { return machine_; }
  const GtsOptions& options() const { return options_; }

  /// The engine's metrics registry: cumulative counters over the engine's
  /// lifetime, refreshed at the end of every Run()/RunPass(). Shared so
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

 private:
  friend class JobScheduler;

  struct GpuState;
  struct CpuState;
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
  /// Allocates job `slot`'s per-GPU WA partition (+ local nextPIDSets
  /// for traversal kernels); on failure every partial slice is released
  /// and the allocation error returned (the admission-control signal).
  Status AdmitJobSlices(JobExec* job, int slot);
  /// Allocates the shared per-stream SP/LP/RA buffers (RA sized for the
  /// largest admitted ra_bytes_per_vertex) and resets stream state.
  Status SetupSharedStreamBuffers(uint32_t max_ra_b);
  /// Host co-processing state for `kernel` (cpu_assist_fraction > 0;
  /// Validate() keeps such epochs to one job). FailedPrecondition for
  /// Strategy-S scans on several GPUs.
  Status SetupCpuAssist(const GtsKernel* kernel);
  /// Per-GPU shared page cache over the memory left after admission.
  void SetupCaches();
  void ReleaseBatchBuffers(const std::vector<JobExec*>& jobs);
  void ReleaseBuffers();
  /// WA upload/download for one job's slices (and the host replica under
  /// CPU assist); ops carry the job's tag.
  void UploadWaJob(JobExec* job);
  void DownloadWaJob(JobExec* job);
  /// Per-level sync of one traversal job: its local nextPIDSets to the
  /// host and, with several WA replicas, the level's WA delta exchange.
  void SyncJobLevel(JobExec* job);
  /// Completes one job inside a running epoch: WA download (ok jobs),
  /// per-job work/io stat harvest, slice release, finished flag.
  void FinishJobInEpoch(JobExec* job);
  /// NoteWaReplica's `g` for the CPU-assist host replica.
  static constexpr int kHostReplica = -1;
  /// Race-detector report of one whole-replica WA access by `job`: GPU
  /// `g`'s slice, or the host replica for kHostReplica. No-op without a
  /// detector.
  void NoteWaReplica(const JobExec& job, int g, int lane,
                     analysis::AccessClass cls, gpu::OpIndex op);
  /// The dispatch loops: every page carries the list of jobs demanding
  /// it (demand_), and one stream/cache access services them all. Pages
  /// the hybrid extension routes to the host run on the CPU lanes.
  Status ProcessPagesBatch(const std::vector<PageId>& ordered);
  /// Worker-driven pull dispatch: publishes the pass as work items on a
  /// shared ReadyQueue (replicated pages fan out as one gpu-bound item
  /// per GPU) and has every stream worker claim -- stealing from sibling
  /// streams and, under Strategy-P, across GPUs -- until the queue
  /// drains. Claim/steal edges are recorded in dispatch_events_ for the
  /// validator's R9 rule.
  Status ProcessPagesBatchPull(const std::vector<PageId>& ordered);
  /// Streams page `pid` to stream `s` of GPU `g` and runs one kernel per
  /// demanding job against the staged (or cached) copy. With `pull` set,
  /// the host-side phase (io acquire + MMBuf read, op recording, metric
  /// bumps) runs under dispatch_mu_ and the kernels execute inline on
  /// the calling stream worker; otherwise they are enqueued to the
  /// stream under use_stream_threads, else run inline.
  Status StreamPageToGpuBatch(PageId pid, int g, int s, bool pull,
                              bool stolen);
  /// Epoch wrap-up: simulate once, run the analysis layer (race-report
  /// harvest, schedule validator including the job-isolation rule, lock
  /// registry drain) over the merged timeline, stamp every finished job
  /// with the epoch makespan/busy stats, publish, escalate findings per
  /// GtsOptions::analysis, release buffers.
  void FinalizeBatchEpoch(const std::vector<JobExec*>& jobs);

  /// Per-GPU WA ownership range under the active strategy. Traversal
  /// kernels always replicate WA (they read arbitrary neighbors' state).
  void WaRange(int g, bool traversal, VertexId* begin, VertexId* end) const;

  /// True if the hybrid extension routes page `pid` to the host CPUs.
  bool AssignToCpu(PageId pid) const;

  /// One page's CPU/GPU routing under the active strategy + partition
  /// policy. The single source of routing truth shared by PlanPass's
  /// demand planning and both dispatch loops, so they cannot drift.
  struct PageRoute {
    bool cpu = false;   ///< hybrid extension routes it to the host CPUs
    int first_gpu = 0;  ///< inclusive
    int last_gpu = -1;  ///< inclusive (spans every GPU when replicated)
  };
  PageRoute RoutePage(PageId pid) const;

  /// Processes one page of `job` on the host CPUs (no PCI-E traffic).
  Status ProcessPageOnCpu(JobExec* job, PageId pid);

  /// Publishes one run's counters cumulatively into registry_.
  void PublishMetrics(const RunMetrics& metrics);

  /// Stage 0 of every pass: drives the dispatch pipeline (partition plan
  /// + page order) and hands the ordered batch to the io engine, which
  /// begins prefetching it into MMBuf through the per-device queues.
  /// `frontier` is the level's counted frontier for traversal passes,
  /// null otherwise.
  std::vector<PageId> PlanPass(std::vector<PageId> sps,
                               std::vector<PageId> lps,
                               const PidSet* frontier);

  /// True when traversal frontiers should count activations (the
  /// frontier-density order policy, the admission threshold, or a
  /// non-page-stream transfer backend needs the per-page totals).
  bool CountFrontier() const;

  /// The level's effective dispatch.min_active_edges: explicit values
  /// pass through exactly; the kAuto sentinel derives the threshold
  /// from the level's observed active-edge distribution over
  /// `front_pages` (HyTGraph-style adaptive admission).
  uint32_t EffectiveMinActiveEdges(const PidSet& frontier,
                                   const std::vector<PageId>& front_pages);

  /// Fills out_degrees_ (per-vertex out-degree table) on first use; the
  /// weight source for active-edge frontier counting. With ingestion
  /// enabled the table is rebuilt whenever the publish epoch moved, then
  /// patched with the accumulated per-vertex degree deltas.
  void BuildDegreeTable();

  /// Safe-point ingest publish: drains buffered updates into delta
  /// chains + installs finished compactions, then invalidates cached
  /// copies of every changed page on every GPU (in-flight pins keep
  /// their stale bytes until released). No-op when ingestion is
  /// disabled. Must only run at pass/level boundaries -- never while
  /// stream workers hold staged pages.
  void PublishIngest();

  /// Scheduler-only (driver-exclusive) full drain: flush + publish +
  /// compact until every delta chain is empty. See
  /// JobScheduler::QuiesceIngest.
  Status QuiesceIngestExclusive();

  void SynchronizeStreams();

  const PagedGraph* graph_;
  PageStore* store_;
  MachineConfig machine_;
  GtsOptions options_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<DispatchPipeline> pipeline_;
  std::unique_ptr<io::IoEngine> io_;
  /// The H2D topology-transfer backend (GtsOptions::transfer.mode);
  /// constructed after io_, whose lifetime it depends on.
  std::unique_ptr<transfer::TransferBackend> transfer_;
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
  std::unique_ptr<CpuState> cpu_;  // present while a hybrid epoch is active
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
  /// the element ranges handed to execute closures never move.
  std::vector<JobLaunch> launches_;

  // Schedule recording (guarded: stream threads patch kernel durations).
  // Leaf lock: nothing is acquired while holding it, hence the highest
  // level in the declared order.
  analysis::sync::Mutex record_mu_{"engine.record",
                                   analysis::sync::level::kRecord};
  gpu::ScheduleRecorder recorder_ GTS_GUARDED_BY(record_mu_);
  gpu::OpIndex RecordOp(gpu::TimelineOp op);
  void PatchKernelDuration(gpu::OpIndex idx, SimTime duration);

  // gts::analysis wiring. The event logs feed the always-on schedule
  // validator (pin lifetimes from every PageCache, submit/issue/deliver
  // sequences from gts::io); both are cleared at epoch start and drained
  // by FinalizeBatchEpoch.
  analysis::PinEventLog pin_events_;
  analysis::IoEventLog io_events_;
  /// Ready-queue enqueue/claim edges for the validator's R9
  /// claim-uniqueness rule (only populated by pull-mode passes).
  analysis::DispatchEventLog dispatch_events_;
  /// First work-item id for the next pull-mode pass. Item ids key the R9
  /// audit across the whole run, so each pass's ReadyQueue continues the
  /// sequence; reset to 0 wherever dispatch_events_ is cleared.
  uint64_t work_item_seq_ = 0;

  /// Serializes the host-side phase of pull-mode stream workers:
  /// io_->Acquire + MMBuf reads (a concurrent Acquire may evict the
  /// bytes another worker is copying), op recording order, and
  /// RunMetrics bumps. Kernel execution and ready-queue claims run
  /// outside it -- that concurrency is the point of pull dispatch.
  /// Ordered just above job.scheduler: a worker holding it may acquire
  /// the io, cache, and record locks, never the scheduler's.
  analysis::sync::Mutex dispatch_mu_{"engine.dispatch",
                                     analysis::sync::level::kEngineDispatch};
  /// The happens-before detector; constructed only when the build
  /// carries -DGTS_RACE_CHECK=ON and GtsOptions::analysis.race_check is
  /// set, so every hook below is one null test otherwise.
  std::unique_ptr<analysis::RaceDetector> race_;
};

}  // namespace gts

#endif  // GTS_CORE_ENGINE_H_
