// The gts::io front-end: the one path between the PageStore and the
// engine's dispatch loop for priced storage reads and writes.
//
// Acquire(pid) reads a page when the engine demands it, in demand order:
// an MMBuf hit costs nothing; a miss reads the page from its device into
// MMBuf (PageStore::Fetch) and records one kStorageFetch op on that
// device. Write() and RewritePage() land their bytes at once and record
// one kStorageWrite op. The discrete-event simulator replays each
// device's ops serially in record order, overlapping them with copies and
// kernels, so recording in demand order is all the scheduling storage
// needs -- except where a read overwrites an MMBuf slot. The ops that
// read a slot's page (its H2D copies, or its CPU-assist kernel) report
// themselves through NoteReader, and a read that later lands in that
// slot in the same pass depends on every one of them. The engine
// acquires each page at most once per pass: a Strategy-S page's later
// GPU legs reuse the first leg's read.
//
// Pricing: a read costs the device's ReadCost; with io.merge_sequential
// a read that starts at its device's head (the end of the previous read
// or write on that device in this pass) costs SequentialReadCost
// instead. Writes cost WriteCost, never merge, and move the head.
#ifndef GTS_IO_IO_ENGINE_H_
#define GTS_IO_IO_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/sync/sync.h"
#include "common/status.h"
#include "gpu/schedule.h"
#include "io/io_options.h"
#include "obs/metrics.h"
#include "storage/page_store.h"
#include "storage/paged_graph.h"

namespace gts {
namespace io {

/// Per-run io counters (reset by the engine alongside the store's
/// PageStoreStats; published cumulatively as io.* registry metrics).
struct IoStats {
  uint64_t completed = 0;      ///< page reads serviced by a device
  uint64_t merged_bursts = 0;  ///< reads charged SequentialReadCost
  /// Page-less writes through Write(): ingest delta records.
  uint64_t spill_writes = 0;
  /// In-band base-page rewrites (ingest compaction installs).
  uint64_t page_rewrites = 0;

  IoStats& operator+=(const IoStats& other) {
    completed += other.completed;
    merged_bursts += other.merged_bursts;
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

  /// Starts one pass: forgets every device's head, so no read merges
  /// with an op recorded before the pass barrier, and every slot's
  /// readers, which the barrier already orders before the pass.
  void BeginPass();

  struct Fetched {
    const uint8_t* data = nullptr;  ///< page bytes, valid until next eviction
    bool buffer_hit = false;
    size_t device_index = 0;        ///< meaningful when !buffer_hit
    /// The recorded kStorageFetch op of a miss, to depend on; kNoOp on a
    /// hit or on a zero-cost in-memory device.
    gpu::OpIndex fetch_op = gpu::kNoOp;
    uint32_t slot = 0;  ///< the MMBuf slot holding the page
    /// On a miss, the page that was read from the slot earlier in the
    /// pass and that the device read overwrote after waiting for its
    /// readers; kInvalidPageId when no reader was waited for.
    PageId evicted = kInvalidPageId;
  };

  /// Delivers page `pid`: an MMBuf hit, or a device read into MMBuf
  /// recorded as one kStorageFetch op that depends on every op that read
  /// the slot's previous page in this pass. More than two such readers
  /// (Strategy-S on three or more GPUs) are folded into zero-cost
  /// kHostCompute joins.
  Result<Fetched> Acquire(PageId pid);

  /// Records that op `op` reads the MMBuf bytes `page` delivered, so a
  /// device read that later lands in the same slot in this pass waits
  /// for it. A no-op (and lock-free) on a store that never evicts.
  void NoteReader(const Fetched& page, gpu::OpIndex op);

  /// Writes `length` bytes at `offset` on storage device `device`: the
  /// bytes land immediately (host-side correctness never waits on the
  /// simulated clock) and one kStorageWrite op is recorded. Returns its
  /// index (kNoOp on a zero-cost device). The store rejects a device
  /// past its last, or a range overlapping the striped pages, as
  /// InvalidArgument.
  Result<gpu::OpIndex> Write(size_t device, uint64_t offset,
                             const uint8_t* data, uint64_t length);

  /// Rewrites base page `pid` in place (ingest compaction install): the
  /// new image lands in the store immediately (dropping any MMBuf copy so
  /// later fetches read the new version) and is priced as a kStorageWrite
  /// op that -- unlike a delta record -- carries the page id, so traces and
  /// the lint rules can tie the install to the page's fetch lane. The
  /// store rejects a pid past the graph as InvalidArgument.
  Result<gpu::OpIndex> RewritePage(PageId pid, const uint8_t* data,
                                   uint64_t length);

  const IoStats& stats() const { return stats_; }
  void ResetStats() { stats_ = IoStats{}; }

 private:
  /// Moves `device`'s head to the end of the op and records it (when it
  /// costs anything and a recorder is bound).
  gpu::OpIndex RecordStorageOp(gpu::OpKind kind, size_t device,
                               uint64_t offset, uint64_t length, SimTime cost,
                               PageId page, bool merged,
                               gpu::OpIndex dep0 = gpu::kNoOp,
                               gpu::OpIndex dep1 = gpu::kNoOp)
      GTS_REQUIRES(mu_);

  const PagedGraph* graph_;
  PageStore* store_;
  IoOptions options_;
  RecordFn record_;

  /// Serializes reads, writes, the heads and the counters across callers
  /// (the dispatch loop and the ingest publish's priced writes).
  mutable analysis::sync::Mutex mu_{"io.engine", analysis::sync::level::kIo};
  /// Per device: the end offset of the pass's latest op, kNoHead before
  /// the first.
  static constexpr uint64_t kNoHead = ~uint64_t{0};
  std::vector<uint64_t> heads_ GTS_GUARDED_BY(mu_);
  /// Per MMBuf slot (grown on demand, evicting stores only): the page
  /// the slot held in this pass and the ops that read it.
  struct SlotReaders {
    PageId page = kInvalidPageId;
    std::vector<gpu::OpIndex> ops;
  };
  std::vector<SlotReaders> readers_ GTS_GUARDED_BY(mu_);

  IoStats stats_;
  obs::Counter* completed_metric_ = nullptr;
  obs::Counter* merged_metric_ = nullptr;
  obs::Counter* spill_metric_ = nullptr;
  obs::Counter* rewrite_metric_ = nullptr;
};

}  // namespace io
}  // namespace gts

#endif  // GTS_IO_IO_ENGINE_H_
