// Global lock-order registry behind the sync::Mutex wrappers (ON builds).
//
// Every acquisition of a sync::Mutex reports here. The registry keeps
// per-thread held-lock stacks and a process-wide lock-order graph whose
// nodes are *sites* (mutex names) and whose edges record "a thread
// acquired B while holding A", together with the full held stack and
// thread observed when the edge was first recorded. On every new edge it
// searches for a cycle: a cycle in the site graph is a potential deadlock
// even if no run ever interleaved into it, and the report names both
// acquisition stacks (the new edge's and the first-recorded reverse
// path's). Four more rules run on the same hooks:
//
//   lock-level:      acquiring a levelled mutex requires its declared
//                    level to exceed every levelled mutex already held
//   self-deadlock:   relocking a mutex the thread already holds (degraded
//                    to a depth-counted reentrant hold so the checked
//                    build reports instead of hanging)
//   wait-while-holding: CondVar::wait while holding any *other* tracked
//                    mutex (the classic nested-monitor deadlock shape)
//   pin-across-safe-point: a PageCache pin still held by a thread when an
//                    ingest safe point (PublishIngest) runs on it
//
// Findings drain into the RunMetrics::analysis of every job of the
// batch epoch that accrued them, via GtsEngine::FinalizeBatchEpoch
// (TakeViolations), and publish as the analysis.lock_* counters. With
// GTS_SYNC_STRICT=1 in the environment a novel violation aborts the
// process with the report on stderr (the check_sync sweep's enforcement
// mode); ScopedExpectViolations suppresses the abort for seeded-negative
// tests.
//
// Compiled only when GTS_SYNC_CHECK_ENABLED (sync.h gates the include
// sites); the header itself is ifdef-free so tools can lint it alone.
#ifndef GTS_ANALYSIS_SYNC_LOCK_REGISTRY_H_
#define GTS_ANALYSIS_SYNC_LOCK_REGISTRY_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/race_report.h"
#include "analysis/sync/sync.h"

namespace gts {
namespace analysis {
namespace sync {

class LockRegistry {
 public:
  /// Snapshot counters (cumulative since process start).
  struct Stats {
    uint64_t acquisitions = 0;
    uint64_t sites = 0;
    uint64_t edges = 0;
    uint64_t violations_detected = 0;
  };

  /// One TakeViolations() harvest: the novel violations recorded since
  /// the previous drain plus the counter deltas over the same window.
  struct Drain {
    std::vector<LockOrderViolation> violations;
    uint64_t violations_detected = 0;
    uint64_t acquisitions = 0;
  };

  /// The process-wide registry every sync::Mutex reports to.
  static LockRegistry& Global();

  // ---- sync::Mutex / sync::CondVar hooks (see sync.h detail::*) -------
  bool OnLockAttempt(Mutex* m);
  void OnLocked(Mutex* m);
  bool OnUnlock(Mutex* m);
  void OnWait(Mutex* m);

  // ---- PageCache pin rule ---------------------------------------------
  /// Registers a pin acquired on the calling thread; the returned id is
  /// the owner key NotePinReleased needs (a pin may be released on
  /// another thread than the one that took it).
  std::thread::id NotePinAcquired();
  void NotePinReleased(std::thread::id owner);
  /// Declares a safe point (e.g. "ingest-publish") on the calling thread;
  /// a pin still held by it is a pin-across-safe-point violation.
  void NoteSafePoint(const char* what);

  // ---- Harvest / introspection ----------------------------------------
  Drain TakeViolations();
  Stats snapshot() const;
  /// Cumulative violations (never reset; trace metadata reads this).
  uint64_t violations_detected() const;

  /// Test hook: forgets the order graph, reported-set, and pending
  /// violations (counters keep counting). Call with no tracked locks held.
  void ResetForTest();

 private:
  LockRegistry() = default;

  struct Edge {
    int to = -1;
    std::string holder_stack;  ///< held-site names when first recorded
    std::string thread_name;   ///< acquiring thread when first recorded
  };

  /// Interns `name` as a graph node; records a lock-level-mismatch
  /// violation when one site name registers two distinct nonzero levels.
  int SiteIdLocked(const char* name, int level);
  void RecordViolationLocked(LockOrderViolation v);
  /// True when a path `from` -> ... -> `to` exists in the edge graph.
  bool PathExistsLocked(int from, int to, std::vector<int>* path) const;
  std::string HeldStackString() const;

  mutable std::mutex mu_;
  std::unordered_map<std::string, int> site_ids_;
  std::vector<std::string> site_names_;
  std::vector<int> site_levels_;
  std::vector<std::vector<Edge>> adj_;
  std::unordered_set<uint64_t> edge_keys_;
  std::unordered_set<std::string> reported_;
  std::vector<LockOrderViolation> pending_;
  std::unordered_map<std::thread::id, uint64_t> pins_;

  uint64_t acquisitions_ = 0;
  uint64_t edges_ = 0;
  uint64_t violations_total_ = 0;
  uint64_t violations_drained_ = 0;
  uint64_t acquisitions_drained_ = 0;
};

/// RAII suppression of the GTS_SYNC_STRICT abort, for tests that seed
/// violations on purpose (the violations are still recorded).
class ScopedExpectViolations {
 public:
  ScopedExpectViolations();
  ~ScopedExpectViolations();
  ScopedExpectViolations(const ScopedExpectViolations&) = delete;
  ScopedExpectViolations& operator=(const ScopedExpectViolations&) = delete;
};

}  // namespace sync
}  // namespace analysis
}  // namespace gts

#endif  // GTS_ANALYSIS_SYNC_LOCK_REGISTRY_H_
