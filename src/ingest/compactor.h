// Background compactor: merges long delta chains into rebuilt page images.
//
// The worker thread watches the DeltaStore for chains crossing the
// compaction threshold, rebuilds each candidate page off-lock
// (DeltaStore::CompactionCandidates, then Build), and parks the finished
// image on a completed queue. It never installs anything itself: the
// engine drains the queue at the next safe point (EdgeStream::Publish)
// and performs the install plus the priced device rewrite there, so
// in-flight pins and transfers never observe a torn page.
#ifndef GTS_INGEST_COMPACTOR_H_
#define GTS_INGEST_COMPACTOR_H_

#include <thread>
#include <unordered_set>
#include <vector>

#include "analysis/sync/sync.h"
#include "graph/types.h"
#include "ingest/delta_store.h"

namespace gts {
namespace ingest {

class Compactor {
 public:
  Compactor(DeltaStore* store, uint32_t threshold);
  ~Compactor();

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  /// Launches the worker thread. Idempotent.
  void Start();

  /// Stops and joins the worker. Idempotent; called by the destructor.
  void Stop();

  /// Wakes the worker to re-scan for compaction candidates (called after
  /// a publish appends to chains).
  void Nudge();

  /// Drains the completed-rebuild queue. The caller owns installing each
  /// compaction (DeltaStore::Install) and rewriting the device page.
  std::vector<DeltaStore::Compaction> TakeCompleted();

 private:
  void Loop();

  DeltaStore* const store_;
  const uint32_t threshold_;

  analysis::sync::Mutex mu_{"ingest.compactor",
                            analysis::sync::level::kIngestCompactor};
  analysis::sync::CondVar cv_;
  bool stop_ GTS_GUARDED_BY(mu_) = false;
  bool nudged_ GTS_GUARDED_BY(mu_) = false;
  bool started_ GTS_GUARDED_BY(mu_) = false;
  std::vector<DeltaStore::Compaction> completed_ GTS_GUARDED_BY(mu_);
  /// Pages with a rebuild awaiting install; the worker skips them so it
  /// does not rebuild the same chain repeatedly.
  std::unordered_set<PageId> pending_install_ GTS_GUARDED_BY(mu_);
  std::thread thread_;
};

}  // namespace ingest
}  // namespace gts

#endif  // GTS_INGEST_COMPACTOR_H_
