// sync::Explorer -- CHESS/Loom-style controlled concurrency testing.
//
// The explorer serializes a set of test threads so that exactly one runs
// at a time, with context switches permitted only at the sync wrappers'
// yield points (before every sync::Mutex acquisition and at CondVar
// waits). Every run is therefore a deterministic function of the sequence
// of scheduling *decisions* -- the points where more than one thread was
// runnable -- and the explorer systematically enumerates those sequences:
//
//   * exhaustive DFS over all schedules with at most
//     Options::max_preemptions preemptive switches (a switch away from a
//     thread that could have kept running), the CHESS iterative-context-
//     bounding result that most concurrency bugs need very few
//     preemptions;
//   * a seeded-random phase past the bound (or past Options::max_schedules
//     DFS runs), deduplicated by decision string.
//
// A failing schedule -- an invariant Check() that fails, a deadlock among
// managed threads, or an unhandled exception -- is reported as a
// *replayable decision string* ("1.0.2.0...": the thread chosen at each
// decision point). Feeding that string back through Options::replay
// re-runs exactly that interleaving, turning any explorer finding into a
// deterministic regression test.
//
// Usage (ON builds; OFF-mode Explore() runs the body once, unserialized):
//
//   sync::Explorer ex({.max_schedules = 2000, .max_preemptions = 2});
//   auto result = ex.Explore([&](sync::Explorer& e) {
//     PageCache cache(...);                  // fresh state per schedule
//     e.Run({[&] { cache.Lookup(...); }, [&] { cache.Insert(...); }});
//     e.Check(invariant_holds, "pinned page evicted");
//   });
//   ASSERT_TRUE(result.ok()) << result.ToString();
#ifndef GTS_ANALYSIS_SYNC_EXPLORER_H_
#define GTS_ANALYSIS_SYNC_EXPLORER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "analysis/sync/sync.h"

#if GTS_SYNC_CHECK_ENABLED
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_set>
#endif

namespace gts {
namespace analysis {
namespace sync {

class Explorer {
 public:
  struct Options {
    /// Total schedule budget across the DFS and random phases.
    int max_schedules = 2000;
    /// Preemption bound for the exhaustive DFS phase. Schedules needing
    /// more preemptions are only reachable through the random phase.
    int max_preemptions = std::numeric_limits<int>::max();
    /// Seed for the random phase (same seed => same schedules).
    uint64_t seed = 1;
    /// Non-empty: replay exactly this decision string once and stop.
    std::string replay;
    /// Stop exploring at the first failing schedule.
    bool fail_fast = true;
    /// How long the coordinator waits for an *unmanaged* thread (one not
    /// spawned through Run) to unblock a condition wait before declaring
    /// the schedule deadlocked.
    int deadlock_timeout_ms = 100;
  };

  struct Failure {
    std::string schedule;  ///< replayable decision string
    std::string message;

    std::string ToString() const {
      return "[schedule " + (schedule.empty() ? "-" : schedule) + "] " +
             message;
    }
  };

  struct Result {
    int schedules_run = 0;
    int distinct_schedules = 0;
    /// True when the DFS phase enumerated every schedule within the
    /// preemption bound (the random phase then adds nothing new).
    bool exhausted = false;
    std::vector<Failure> failures;

    bool ok() const { return failures.empty(); }
    std::string ToString() const;
  };

  Explorer();
  explicit Explorer(Options options);
  ~Explorer();

  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  /// Runs `body` once per explored schedule. The body sets up fresh state,
  /// calls Run() exactly once with the competing thunks, then asserts
  /// invariants through Check().
  Result Explore(const std::function<void(Explorer&)>& body);

  /// Spawns one managed thread per thunk and coordinates them to one
  /// serialized schedule; returns when all have finished. Only valid
  /// inside an Explore() body.
  void Run(std::vector<std::function<void()>> thunks);

  /// Records a failure against the current schedule when `ok` is false.
  void Check(bool ok, const std::string& message);

  /// Decision string of the schedule currently being (or just) run.
  const std::string& current_schedule() const { return schedule_; }

#if GTS_SYNC_CHECK_ENABLED
  // ---- sync.h detail:: hook backends (managed threads only) -------------
  bool CoopLock(Mutex* m);
  bool CoopUnlock(Mutex* m);
  bool CoopWait(CondVar* cv, UniqueLock* lk);
  void CoopNotify(CondVar* cv);
#endif

 private:
  Options options_;
  std::string schedule_;
  std::vector<Failure> failures_;

#if GTS_SYNC_CHECK_ENABLED
  enum class Mode { kDfs, kRandom, kReplay };
  enum class State : uint8_t {
    kRunnable,
    kRunning,
    kBlockedMutex,
    kBlockedCv,
    kDone,
  };

  struct ThreadState {
    std::thread thread;
    State state = State::kRunnable;
    Mutex* waiting_mutex = nullptr;
    CondVar* waiting_cv = nullptr;
    std::vector<Mutex*> held;  ///< coop-held; force-released on abort
  };

  /// One multi-candidate scheduling decision (DFS backtracking record).
  struct Decision {
    std::vector<int> candidates;  ///< runnable thread ids, ascending
    std::vector<int> order;       ///< enumeration order over candidates[]
    size_t order_pos = 0;         ///< position in `order` chosen this run
    int last_active = -1;
    bool last_active_runnable = false;
    int preemptions_before = 0;
  };

  struct AbortSchedule {};  ///< thrown at yield points to unwind a thread

  void RunSchedule(const std::function<void(Explorer&)>& body, Mode mode);
  void ThreadMain(int idx, std::function<void()> fn);
  /// Parks the calling managed thread and hands the token back to the
  /// coordinator; returns when the coordinator grants this thread again.
  /// `state` is the parked state (kRunnable = plain yield).
  void Park(std::unique_lock<std::mutex>& ctl, int idx, State state);
  void Grant(std::unique_lock<std::mutex>& ctl, int idx);
  int Choose(std::unique_lock<std::mutex>& ctl,
             const std::vector<int>& candidates);
  std::vector<int> RunnableLocked() const;
  void DeclareDeadlock(std::unique_lock<std::mutex>& ctl);
  void ReleaseAllLocked(std::unique_lock<std::mutex>& ctl);
  /// Advances the DFS plan to the next unexplored schedule; false when the
  /// bounded space is exhausted.
  bool AdvancePlan();
  bool Admissible(const Decision& d, size_t order_pos) const;
  void RecordFailure(const std::string& message);

  Mode mode_ = Mode::kDfs;
  std::vector<int> plan_;        ///< forced candidate picks (DFS prefix)
  std::vector<int> replay_plan_; ///< parsed Options::replay thread ids
  std::vector<Decision> decisions_;
  size_t decision_pos_ = 0;
  int preemptions_ = 0;
  int last_active_ = -1;
  bool abort_ = false;
  bool replay_diverged_ = false;
  uint64_t rng_state_ = 0;

  mutable std::mutex ctl_mu_;
  std::condition_variable ctl_cv_;
  int active_ = -1;  ///< granted thread index; -1 = coordinator
  std::vector<ThreadState*> threads_;
#endif  // GTS_SYNC_CHECK_ENABLED
};

}  // namespace sync
}  // namespace analysis
}  // namespace gts

#endif  // GTS_ANALYSIS_SYNC_EXPLORER_H_
