// DeltaStore: published per-page delta chains plus installed page images.
//
// Gutter flushes are *resolved* here into per-page PageDelta chains: each
// update is routed to the concrete page/slot it mutates, capacity-checked
// against the page's effective content (installed image + pending chain),
// and appended to that page's chain. Resolution runs only at safe points
// (run start, pass/level boundaries, quiesce), so queries never observe a
// chain growing mid-pass.
//
// Readers overlay chains onto staged pages (Overlay); a publish folds
// long chains into the pages' installed images (CompactionCandidates,
// then Compact), also at a safe point only.
// Every delta is applied to page bytes in place: an insert or delete
// shifts the records behind it within the page. Slot assignments and
// the vid order within a page never change -- inserts append entries and
// deletes splice them out -- so RecordId references from *other* pages
// stay valid across any number of compactions.
#ifndef GTS_INGEST_DELTA_STORE_H_
#define GTS_INGEST_DELTA_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "analysis/sync/sync.h"
#include "graph/types.h"
#include "ingest/gutter_bank.h"
#include "ingest/update.h"
#include "storage/paged_graph.h"
#include "storage/slotted_page.h"

namespace gts {
namespace ingest {

/// One resolved mutation of one page. Chains of these are the "delta
/// records appended beside the base page"; applying a chain in order to
/// the page's installed image yields its current content.
struct PageDelta {
  enum class Op : uint8_t {
    kInsert,     ///< append `neighbor` at the end of `slot`'s adjacency
    kRemove,     ///< remove the first occurrence of `neighbor` in `slot`
    kSetLpTotal  ///< refresh an LP header's lp_total_degree to `lp_total`
  };

  Op op = Op::kInsert;
  uint32_t slot = 0;
  RecordId neighbor;
  uint32_t lp_total = 0;

  friend bool operator==(const PageDelta&, const PageDelta&) = default;
};

class DeltaStore {
 public:
  explicit DeltaStore(const PagedGraph* graph);

  /// Resolves a batch of drained gutter flushes into per-page chains.
  /// Appends every page whose chain grew to `changed` (deduplicated).
  /// Safe-point only.
  void ResolveFlushes(const std::vector<GutterBank::Flush>& flushes,
                      std::vector<PageId>* changed);

  /// Patches `bytes` (page_size staged bytes of `pid`'s installed image)
  /// with the page's pending chain. Returns false -- leaving `bytes`
  /// untouched -- when no deltas are pending. Thread-safe; called from
  /// streaming/demand-fetch paths while producers append elsewhere.
  bool Overlay(PageId pid, uint8_t* bytes);

  /// True if `pid` has pending (uncompacted) deltas.
  bool HasDeltas(PageId pid) const;

  /// Monotonic per-page version: bumped when the page's chain grows and
  /// when the page is compacted. Pages never touched by ingestion stay
  /// at version 0.
  uint64_t PageVersion(PageId pid) const;

  /// Pages whose pending chain holds at least `threshold` (>= 1) deltas,
  /// in compaction order: longest chain first, ties in the iteration order
  /// of the store's hash table. One pass over the pages.
  std::vector<PageId> CompactionCandidates(uint32_t threshold) const;

  /// Folds `pid`'s whole pending chain into its installed image (a copy
  /// of the base page on the first compaction), clears the chain and
  /// bumps the page version. Returns the installed bytes, valid until the
  /// page's next Compact, or nullptr when the chain is empty. Safe-point
  /// only.
  const uint8_t* Compact(PageId pid);

  /// Longest pending chain across all pages (0 when fully compacted).
  size_t MaxChainLength() const;

  /// Folds accumulated per-vertex degree changes into `out_degrees` (the
  /// engine's uint32 degree table, clamped at zero). Does not reset the
  /// deltas: callers pass the frozen-graph base table each time.
  void ApplyDegreeDeltas(std::vector<uint32_t>* out_degrees) const;

  /// Net edge-count change versus the frozen graph (inserts - deletes).
  int64_t EdgeCountDelta() const;

  /// Debug/test readback: v's current neighbors in applied order, with
  /// every pending delta folded in. Quiesce-accurate; approximate while
  /// flushes are still buffered in gutters.
  std::vector<VertexId> CurrentNeighbors(VertexId v) const;

  /// Cumulative resolution/compaction/overlay counters (only the fields
  /// this class owns: updates_applied/rejected, deletes_dropped,
  /// compactions, overlay_hits).
  IngestStats SnapshotStats() const;

 private:
  struct PageState {
    std::vector<PageDelta> chain;  // pending, not yet compacted
    std::vector<uint8_t> image;    // installed rebuild; empty = base page
    uint64_t version = 0;
  };

  /// Current installed bytes of `pid` (rebuilt image or frozen base).
  const uint8_t* InstalledBytes(PageId pid) const GTS_REQUIRES(mu_);

  /// Copies `pid`'s current content -- installed bytes with the pending
  /// chain applied -- into `out` (page_size bytes).
  void CurrentBytes(PageId pid, uint8_t* out) const GTS_REQUIRES(mu_);

  const PagedGraph* graph_;
  const uint64_t lp_chunk_capacity_;  // adjacency entries per LP chunk

  mutable analysis::sync::Mutex mu_{"ingest.delta",
                                    analysis::sync::level::kIngestDelta};
  std::unordered_map<PageId, PageState> states_ GTS_GUARDED_BY(mu_);
  std::unordered_map<VertexId, int64_t> degree_delta_ GTS_GUARDED_BY(mu_);
  int64_t edge_count_delta_ GTS_GUARDED_BY(mu_) = 0;
  IngestStats stats_ GTS_GUARDED_BY(mu_);
};

}  // namespace ingest
}  // namespace gts

#endif  // GTS_INGEST_DELTA_STORE_H_
