// EdgeStream: the gts::ingest entry point for streaming graph updates.
//
// Lifecycle of an update (DESIGN.md section 15):
//
//   producer threads --Append()--> per-page gutters (GutterBank)
//     --capacity / FlushAll--> pending flush queue
//     --Publish() at a safe point--> persisted delta records (priced
//       kStorageWrite to the page's device, beside the base pages) +
//       resolved per-page delta chains (DeltaStore)
//     --compactor--> rebuilt page images, installed + rewritten in-band
//       at the next safe point.
//
// Between safe points queries run against the previous published state;
// streamed pages are patched via Overlay(). Quiesce() drains everything
// and force-compacts every chain, after which the device pages are
// bit-identical to a fresh build of the updated graph.
#ifndef GTS_INGEST_EDGE_STREAM_H_
#define GTS_INGEST_EDGE_STREAM_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/sync/sync.h"
#include "common/status.h"
#include "graph/types.h"
#include "ingest/compactor.h"
#include "ingest/delta_store.h"
#include "ingest/gutter_bank.h"
#include "ingest/ingest_options.h"
#include "ingest/update.h"
#include "obs/metrics.h"
#include "storage/paged_graph.h"

namespace gts {
namespace ingest {

class EdgeStream {
 public:
  /// Engine-provided wiring. The write callbacks go through gts::io so
  /// delta flushes and compaction installs are priced storage ops.
  struct Env {
    const PagedGraph* graph = nullptr;
    IngestOptions options;
    obs::MetricsRegistry* registry = nullptr;  ///< optional ingest.* counters

    int num_devices = 1;
    /// Storage device holding `pid`'s base page.
    std::function<int(PageId)> device_of_page;
    /// First device byte available for delta records (past the base pages
    /// and any engine-reserved out-of-band region).
    std::function<uint64_t(int)> delta_region_base;
    /// Priced out-of-band append of one serialized delta record.
    std::function<void(int device, uint64_t offset, const uint8_t* data,
                       uint64_t length)>
        write_delta;
    /// Priced in-band rewrite of a base page (compaction install).
    std::function<void(PageId pid, const uint8_t* data, uint64_t length)>
        rewrite_page;
  };

  explicit EdgeStream(Env env);
  ~EdgeStream();

  EdgeStream(const EdgeStream&) = delete;
  EdgeStream& operator=(const EdgeStream&) = delete;

  // ---- Producer side (thread-safe, never blocks a running pass) -------

  /// Routes each update to its source page's gutter. Fails (whole batch
  /// rejected) if any vertex id is outside [0, num_vertices).
  Status Append(const UpdateBatch& batch);

  /// Moves every partially-filled gutter to the pending queue so the
  /// next Publish() sees all appended updates.
  void FlushGutters();

  // ---- Safe-point side (engine thread / quiesce only) -----------------

  /// Drains pending flushes, persists them as delta records, resolves
  /// them into per-page chains, and installs finished compactions.
  /// Returns the sorted, deduplicated pages whose visible content
  /// changed; the caller must invalidate cached copies of those pages
  /// before the next pass reads them.
  std::vector<PageId> Publish();

  /// Flushes + publishes everything, then compacts until no chain
  /// remains: afterwards the device pages equal a fresh build of the
  /// updated graph. Returns changed pages, as Publish() does.
  std::vector<PageId> Quiesce();

  // ---- Query side (thread-safe) ---------------------------------------

  /// Patches staged page bytes with `pid`'s pending chain. False (bytes
  /// untouched) when the page has no pending deltas.
  bool Overlay(PageId pid, uint8_t* bytes);

  bool HasDeltas(PageId pid) const;
  uint64_t PageVersion(PageId pid) const;

  /// Publish generation: bumped whenever a Publish()/Quiesce() changed
  /// at least one page. The engine refreshes its degree table when this
  /// moves.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Folds per-vertex degree changes into a frozen-graph degree table.
  void ApplyDegreeDeltas(std::vector<uint32_t>* out_degrees) const;

  /// Net edge-count change versus the frozen graph.
  int64_t EdgeCountDelta() const;

  /// Debug/test readback of v's current published adjacency, in applied
  /// order (exact after Quiesce()).
  std::vector<VertexId> CurrentNeighbors(VertexId v) const;

  size_t MaxChainLength() const;
  size_t BufferedUpdates() const;

  /// Cumulative counters across all publishes so far.
  IngestStats SnapshotStats() const;

  /// Counters accrued since the previous TakeRunStats() call (the
  /// engine's per-run harvest). Also syncs the ingest.* registry
  /// counters.
  IngestStats TakeRunStats();

 private:
  /// Publish body; caller holds publish_mu_.
  void PublishLocked(std::vector<PageId>* changed)
      GTS_REQUIRES(publish_mu_);
  void PersistFlushes(const std::vector<GutterBank::Flush>& flushes);
  /// Builds and installs every chain of at least `threshold` deltas, in
  /// DeltaStore::CompactionCandidates order; caller holds publish_mu_.
  void CompactInline(uint32_t threshold, std::vector<PageId>* changed)
      GTS_REQUIRES(publish_mu_);
  /// Installs `compaction` and rewrites the device page from the
  /// installed bytes; records the pid in `changed` on success.
  void InstallAndRewrite(DeltaStore::Compaction&& compaction,
                         std::vector<PageId>* changed);
  /// Sorts/dedups `changed`, bumps the epoch if non-empty, and syncs the
  /// ingest.* registry counters.
  std::vector<PageId> FinishChanged(std::vector<PageId> changed);
  void SyncRegistryLocked(const IngestStats& cumulative)
      GTS_REQUIRES(harvest_mu_);

  Env env_;
  GutterBank gutters_;
  DeltaStore delta_;
  std::unique_ptr<Compactor> compactor_;  // null unless background mode

  // Serializes Publish/Quiesce. Publishing nests inside the engine's
  // dispatch lock at safe points, hence the level between engine.dispatch
  // and the ready queue.
  analysis::sync::Mutex publish_mu_{"ingest.publish",
                                    analysis::sync::level::kIngestPublish};
  std::vector<uint64_t> delta_cursors_ GTS_GUARDED_BY(
      publish_mu_);  // per-device append offsets
  std::atomic<uint64_t> deltas_flushed_{0};
  std::atomic<uint64_t> delta_bytes_{0};
  std::atomic<uint64_t> epoch_{0};

  mutable analysis::sync::Mutex harvest_mu_{
      "ingest.harvest", analysis::sync::level::kIngestHarvest};
  IngestStats harvested_ GTS_GUARDED_BY(
      harvest_mu_);  // cumulative counters already returned
  IngestStats registered_ GTS_GUARDED_BY(
      harvest_mu_);  // cumulative counters already in the registry
};

}  // namespace ingest
}  // namespace gts

#endif  // GTS_INGEST_EDGE_STREAM_H_
