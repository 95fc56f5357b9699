// The gts::io front-end: depth-queued asynchronous page reads between the
// PageStore and the engine's dispatch loop.
//
// One IoEngine serves one engine. Per pass, BeginPass() hands the pass's
// page order to the prefetcher, which keeps every device's
// DeviceQueue primed; Acquire(pid) then delivers the page bytes, servicing
// the queues through the in-device scheduler as demand arrives. Requests
// completed ahead of demand are parked and consumed without further device
// work -- that is the pipelining the queue depth buys: an elevator or
// sequential-merge scheduler gets a depth-sized window to reorder, so
// scattered page orders (e.g. frontier-density) regain device-sequential
// bursts.
//
// Timing contract: every serviced request records a kStorageFetch op (via
// the engine's recorder) at issue time, in issue order, carrying the
// scheduler-priced duration -- the discrete-event simulator replays the
// per-device serial queue from record order exactly as it did for the old
// synchronous Fetch path. With queue_depth 1 + kFifo the issue order, the
// costs, and therefore the whole schedule reproduce that path byte for
// byte.
//
// Backpressure: the prefetcher stops priming a device whose in-flight
// slots (queued + parked) are exhausted; the rejection is counted as
// io.backpressure and surfaced like cache_backpressure -- the page is
// simply fetched when demanded. Demand is never refused.
#ifndef GTS_IO_IO_ENGINE_H_
#define GTS_IO_IO_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "analysis/event_log.h"
#include "analysis/sync/sync.h"
#include "common/status.h"
#include "gpu/schedule.h"
#include "io/device_queue.h"
#include "io/io_options.h"
#include "io/prefetcher.h"
#include "obs/metrics.h"
#include "storage/page_store.h"
#include "storage/paged_graph.h"

namespace gts {
namespace io {

/// Per-run io-engine counters (reset by the engine alongside the store's
/// PageStoreStats; published cumulatively as io.* registry metrics).
struct IoStats {
  uint64_t submitted = 0;       ///< requests entered into device queues
  uint64_t completed = 0;       ///< requests serviced by a device
  uint64_t merged_bursts = 0;   ///< reads charged SequentialReadCost
  uint64_t reorder_wins = 0;    ///< reads serviced ahead of an older request
  uint64_t backpressure = 0;    ///< prefetch stops due to full in-flight slots
  /// Reads outside the plan. An unplanned miss at Acquire is force-
  /// submitted through the device queue (it also counts as submitted and,
  /// once serviced, completed); the re-read after a parked prefetch was
  /// evicted stays synchronous (its planned read already went through the
  /// queue) and counts here only.
  uint64_t demand_fetches = 0;
  /// Prefetched pages evicted from MMBuf before their Acquire (the window
  /// outgrew the buffer); each costs a second, demand-priced read.
  uint64_t prefetch_evictions = 0;
  /// WA spill / snapshot writes serviced through the device queues.
  uint64_t spill_writes = 0;
  /// In-band base-page rewrites (ingest compaction installs) serviced
  /// through the device queues.
  uint64_t page_rewrites = 0;

  IoStats& operator+=(const IoStats& other) {
    submitted += other.submitted;
    completed += other.completed;
    merged_bursts += other.merged_bursts;
    reorder_wins += other.reorder_wins;
    backpressure += other.backpressure;
    demand_fetches += other.demand_fetches;
    prefetch_evictions += other.prefetch_evictions;
    spill_writes += other.spill_writes;
    page_rewrites += other.page_rewrites;
    return *this;
  }
};

class IoEngine {
 public:
  /// Records one timeline op into the engine's schedule recorder.
  using RecordFn = std::function<gpu::OpIndex(const gpu::TimelineOp&)>;

  /// `registry` may be null (tests); counters are then run-local only.
  IoEngine(const PagedGraph* graph, PageStore* store, IoOptions options,
           RecordFn record, obs::MetricsRegistry* registry);

  /// Starts one pass: resets every device queue (pass-local clocks, head
  /// positions, merge state) and rebuilds the prefetch plans from the
  /// pass's ordered page list. Pages already resident in
  /// MMBuf are not planned.
  void BeginPass(const std::vector<PageId>& ordered);

  struct Fetched {
    const uint8_t* data = nullptr;  ///< page bytes, valid until next eviction
    bool buffer_hit = false;
    size_t device_index = 0;        ///< meaningful when !buffer_hit
    SimTime io_cost = 0.0;          ///< scheduler-priced device time
    /// The recorded kStorageFetch op to depend on (kNoOp on a buffer hit
    /// or a zero-cost in-memory device).
    gpu::OpIndex fetch_op = gpu::kNoOp;
  };

  /// Delivers page `pid`: a parked prefetch completion, an MMBuf hit, a
  /// queued/planned read (serviced through the device scheduler, parking
  /// any requests completed on the way), or -- for an unplanned miss --
  /// a demand read force-submitted through the same device queue, so
  /// even the fallback path contends, reorders, and logs like planned
  /// traffic. Also tops every device queue up from the plans.
  Result<Fetched> Acquire(PageId pid);

  /// Writes `length` bytes at `offset` on storage device `device`
  /// through that device's queue: the bytes land immediately (real
  /// correctness is host-side), while the simulated cost is priced by
  /// the in-device scheduler after any queued reads it chooses to
  /// service first -- those park as usual. Records one kStorageWrite op
  /// depending on `dep` (e.g. the D2H that produced the bytes) and
  /// returns its index (kNoOp on a zero-cost device).
  Result<gpu::OpIndex> Write(size_t device, uint64_t offset,
                             const uint8_t* data, uint64_t length,
                             gpu::OpIndex dep = gpu::kNoOp);

  /// Rewrites base page `pid` in place (ingest compaction install): the
  /// new image lands in the store immediately (dropping any MMBuf copy so
  /// later fetches read the new version) and the write drains through the
  /// page's device queue as a priced kStorageWrite op that -- unlike a WA
  /// spill -- carries the page id, so traces and the lint rules can tie
  /// the install to the page's fetch lane.
  Result<gpu::OpIndex> RewritePage(PageId pid, const uint8_t* data,
                                   uint64_t length);

  const IoStats& stats() const { return stats_; }
  void ResetStats() { stats_ = IoStats{}; }

  /// Streams submit/issue/deliver events into `log` (null detaches) for
  /// the gts::analysis io-order validator. Only queue-serviced requests
  /// are logged: MMBuf hits and demand fetches bypass the device queues,
  /// so they carry no submit->issue->deliver sequence to validate.
  void BindEventLog(analysis::IoEventLog* log);

  const IoOptions& options() const { return options_; }

 private:
  /// A completion awaiting its Acquire. A serviced write comes back with
  /// pid == kInvalidPageId (nothing to park or deliver).
  struct Parked {
    PageId pid = kInvalidPageId;
    size_t device = 0;
    SimTime cost = 0.0;
    gpu::OpIndex op = gpu::kNoOp;
  };

  /// Tops every device queue up from its plan (counts backpressure).
  void PrimeAll();

  /// Queues a write on `device` and drains that queue until it is
  /// serviced, parking reads completed on the way. `page` tags the
  /// recorded op (kInvalidPageId for WA spills, the pid for rewrites).
  Result<gpu::OpIndex> DrainWrite(size_t device, uint64_t offset,
                                  uint64_t length, gpu::OpIndex dep,
                                  PageId page);

  /// Services one request from `queue`: stages the bytes into MMBuf,
  /// records the timeline op, updates counters.
  Result<Parked> IssueOne(DeviceQueue* queue);

  /// Synchronous fetch at full ReadCost, bypassing the queues. Only the
  /// parked-then-evicted re-read uses this; unplanned misses go through
  /// the device queue in Acquire.
  Result<Fetched> DemandFetch(PageId pid);

  const PagedGraph* graph_;
  PageStore* store_;
  IoOptions options_;
  RecordFn record_;

  /// Serializes the whole fetch/write pipeline (prefetcher, parked set,
  /// stats) across callers; each DeviceQueue has its own finer lock
  /// underneath. A deque because DeviceQueue is immovable (it owns a
  /// sync::Mutex).
  mutable analysis::sync::Mutex mu_{"io.engine", analysis::sync::level::kIo};
  std::deque<DeviceQueue> queues_;
  Prefetcher prefetcher_;
  std::unordered_map<PageId, Parked> parked_;
  analysis::IoEventLog* io_log_ = nullptr;

  IoStats stats_;
  obs::Counter* submitted_metric_ = nullptr;
  obs::Counter* completed_metric_ = nullptr;
  obs::Counter* merged_metric_ = nullptr;
  obs::Counter* reorder_metric_ = nullptr;
  obs::Counter* backpressure_metric_ = nullptr;
  obs::Counter* demand_metric_ = nullptr;
  obs::Counter* eviction_metric_ = nullptr;
  obs::Counter* spill_metric_ = nullptr;
  obs::Counter* rewrite_metric_ = nullptr;
  obs::Distribution* depth_dist_ = nullptr;

  /// Dependency for the write currently draining through Write() --
  /// IssueOne stamps it on the recorded kStorageWrite op. At most one
  /// write is in flight (Write drains its own request before returning).
  gpu::OpIndex pending_write_dep_ = gpu::kNoOp;
  /// Page behind the draining write: set by RewritePage (stamped on the
  /// recorded op), kInvalidPageId for WA spills.
  PageId pending_write_page_ = kInvalidPageId;
};

}  // namespace io
}  // namespace gts

#endif  // GTS_IO_IO_ENGINE_H_
