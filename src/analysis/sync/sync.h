// gts::analysis::sync -- instrumented synchronization primitives.
//
// Drop-in wrappers for std::mutex / std::scoped_lock / std::unique_lock /
// std::condition_variable used by the concurrency-critical subsystems
// (PageCache, gts::io, JobScheduler, gts::ingest, the engine's schedule
// recorder). Every wrapped mutex carries a *site name* and a declared
// *lock level*; what the wrappers do with them depends on the build knob:
//
//   -DGTS_SYNC_CHECK=OFF (default): the wrappers are bare std::mutex /
//     std::condition_variable forwarding -- zero cost, no globals, and the
//     recorded schedule (and therefore the fig4 trace) is byte-identical
//     to the pre-wrapper code.
//
//   -DGTS_SYNC_CHECK=ON (GTS_SYNC_CHECK_ENABLED=1): every acquisition is
//     routed through the global LockRegistry (lock_registry.h), which
//     builds the runtime lock-order graph, reports cycles (potential
//     deadlocks) naming both acquisition stacks' sites, and enforces the
//     declared lock-level order plus the wait-while-holding and
//     pin-held-across-safe-point rules. The same hooks are the yield
//     points of the sync::Explorer controlled scheduler (explorer.h),
//     which serializes test threads and systematically replays bounded
//     interleavings of the adopted state machines.
//
// The declared level order (see the table in DESIGN.md section 16):
// levels strictly increase along every legal acquisition chain, so a
// thread may only acquire a mutex whose level is greater than every
// tracked mutex it already holds. Level 0 (kUnordered) opts a site out of
// the level rule (it still participates in the order graph).
#ifndef GTS_ANALYSIS_SYNC_SYNC_H_
#define GTS_ANALYSIS_SYNC_SYNC_H_

#include <condition_variable>
#include <mutex>

// The build knob: -DGTS_SYNC_CHECK=ON defines GTS_SYNC_CHECK_ENABLED=1 on
// the whole target (top-level CMakeLists). Default to "compiled out" so
// translation units that do not go through CMake still build.
#ifndef GTS_SYNC_CHECK_ENABLED
#define GTS_SYNC_CHECK_ENABLED 0
#endif

#if GTS_SYNC_CHECK_ENABLED
#include <atomic>
#endif

// ---- clang -Wthread-safety annotation macros ----------------------------
// No-ops under GCC (and under clang unless -Wthread-safety is on, which
// the sanitizer build enables for clang); they let clang statically check
// GUARDED_BY / REQUIRES contracts against the sync::Mutex capabilities.
#if defined(__clang__)
#define GTS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GTS_THREAD_ANNOTATION(x)
#endif

#define GTS_CAPABILITY(x) GTS_THREAD_ANNOTATION(capability(x))
#define GTS_SCOPED_CAPABILITY GTS_THREAD_ANNOTATION(scoped_lockable)
#define GTS_GUARDED_BY(x) GTS_THREAD_ANNOTATION(guarded_by(x))
#define GTS_REQUIRES(...) GTS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define GTS_ACQUIRE(...) GTS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define GTS_RELEASE(...) GTS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define GTS_EXCLUDES(...) GTS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define GTS_NO_THREAD_SAFETY_ANALYSIS \
  GTS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace gts {
namespace analysis {
namespace sync {

/// True when this binary was built with -DGTS_SYNC_CHECK=ON.
inline constexpr bool kSyncCheckCompiled = GTS_SYNC_CHECK_ENABLED != 0;

// ---- Declared lock levels ----------------------------------------------
// One constant per registered site; strictly increasing along every legal
// acquisition chain (scheduler < ingest-publish < ingest-harvest <
// gutters < delta < cache < io < stream). Sites that never
// nest with each other may share a level only if they are never held
// together (the registry checks >=, not >).
namespace level {
inline constexpr int kUnordered = 0;           ///< opt out of the level rule
inline constexpr int kScheduler = 10;          ///< job.scheduler
inline constexpr int kIngestPublish = 22;      ///< ingest.publish
inline constexpr int kIngestHarvest = 24;      ///< ingest.harvest (outer:
                                               ///< snapshots take the
                                               ///< gutter + delta locks)
inline constexpr int kIngestGutterShard = 32;  ///< ingest.gutter_shard
inline constexpr int kIngestGutterPending = 34;  ///< ingest.gutter_pending
inline constexpr int kIngestDelta = 36;        ///< ingest.delta
inline constexpr int kCache = 40;              ///< cache.page_cache (per GPU)
inline constexpr int kIo = 50;                 ///< io.engine
inline constexpr int kStream = 60;             ///< gpu.stream (leaf)
}  // namespace level

class Mutex;
class CondVar;
class UniqueLock;

#if GTS_SYNC_CHECK_ENABLED
namespace detail {
// Implemented in lock_registry.cc. OnLockAttempt returns true when the
// calling thread already holds `m` (self-deadlock): the violation is
// recorded and the acquisition degrades to a depth-counted reentrant hold
// so the checked build reports instead of hanging. OnUnlock symmetrically
// returns true while reentrant depth remains.
bool RegistryOnLockAttempt(Mutex* m);
void RegistryOnLocked(Mutex* m);
bool RegistryOnUnlock(Mutex* m);
void RegistryOnWait(Mutex* m);
// Implemented in explorer.cc: cooperative acquisition when the calling
// thread is managed by an active sync::Explorer. Each returns true when
// the explorer handled the operation (including the underlying raw
// lock/unlock); unmanaged threads fall through to the bare primitive.
bool ExplorerLock(Mutex* m);
bool ExplorerUnlock(Mutex* m);
bool ExplorerWait(CondVar* cv, UniqueLock* lk);
void ExplorerNotify(CondVar* cv);
}  // namespace detail
#endif

/// Named, levelled mutex. Immovable (like std::mutex); every instance of
/// one logical site shares the site `name` (e.g. each GPU's PageCache
/// mutex registers as "cache.page_cache"), so the lock-order graph is a
/// graph over sites, not instances.
///
/// `explorer_yields = false` keeps the site out of sync::Explorer
/// scheduling (the registry still checks it): acquisitions and waits by
/// managed threads are plain blocking calls, not scheduling points. It is
/// for sites whose waits only an engine-internal thread ends (a GPU
/// worker), where whether a wait happens at all depends on host timing;
/// a scheduling point there would make the explorer's decision strings
/// timing-dependent.
class GTS_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name, int lock_level = level::kUnordered,
                 bool explorer_yields = true)
#if GTS_SYNC_CHECK_ENABLED
      : name_(name), level_(lock_level), explorer_yields_(explorer_yields)
#endif
  {
#if !GTS_SYNC_CHECK_ENABLED
    (void)name;
    (void)lock_level;
    (void)explorer_yields;
#endif
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

#if GTS_SYNC_CHECK_ENABLED
  void lock() GTS_ACQUIRE() {
    if (detail::RegistryOnLockAttempt(this)) return;
    if (!detail::ExplorerLock(this)) mu_.lock();
    detail::RegistryOnLocked(this);
  }
  void unlock() GTS_RELEASE() {
    if (detail::RegistryOnUnlock(this)) return;
    if (!detail::ExplorerUnlock(this)) mu_.unlock();
  }

  const char* name() const { return name_; }
  int lock_level() const { return level_; }
  bool explorer_yields() const { return explorer_yields_; }

  /// Explorer-side raw access (cooperative acquisition probes the
  /// underlying mutex directly; the registry hooks stay in lock()).
  bool TryLockRaw() { return mu_.try_lock(); }
  void UnlockRaw() { mu_.unlock(); }
  /// Index of the managed explorer thread cooperatively holding this
  /// mutex; -1 when free or held by an unmanaged thread.
  std::atomic<int> coop_owner{-1};
#else
  void lock() GTS_ACQUIRE() { mu_.lock(); }
  void unlock() GTS_RELEASE() { mu_.unlock(); }
#endif

  /// The wrapped primitive (OFF-mode CondVar waits on it directly).
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
#if GTS_SYNC_CHECK_ENABLED
  const char* name_;
  int level_;
  bool explorer_yields_;
#endif
};

/// std::scoped_lock / lock_guard equivalent over one sync::Mutex.
class GTS_SCOPED_CAPABILITY Lock {
 public:
  explicit Lock(Mutex& mu) GTS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~Lock() GTS_RELEASE() { mu_.unlock(); }

  Lock(const Lock&) = delete;
  Lock& operator=(const Lock&) = delete;

 private:
  Mutex& mu_;
};

/// std::unique_lock equivalent: supports scoped-manual lock/unlock plus
/// CondVar waits. Not movable (no adopted site needs it).
class UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) : mu_(&mu) { lock(); }
  ~UniqueLock() {
    if (owns_) unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() {
    mu_->lock();
    owns_ = true;
  }
  void unlock() {
    owns_ = false;
    mu_->unlock();
  }
  bool owns_lock() const { return owns_; }
  Mutex* mutex() const { return mu_; }

 private:
  Mutex* mu_;
  bool owns_ = false;
};

/// std::condition_variable equivalent operating on UniqueLock<Mutex>.
///
/// OFF: waits on the wrapped std::mutex through a std::condition_variable
/// (zero added cost). ON: waits through condition_variable_any over the
/// instrumented UniqueLock, so the release/reacquire pair runs the full
/// registry bookkeeping, and the wait itself is a wait-while-holding
/// checkpoint and an Explorer yield point.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

#if GTS_SYNC_CHECK_ENABLED
  void wait(UniqueLock& lk) {
    detail::RegistryOnWait(lk.mutex());
    if (detail::ExplorerWait(this, &lk)) return;
    cv_.wait(lk);
  }
  template <typename Pred>
  void wait(UniqueLock& lk, Pred pred) {
    while (!pred()) wait(lk);
  }
  void notify_one() {
    detail::ExplorerNotify(this);
    cv_.notify_one();
  }
  void notify_all() {
    detail::ExplorerNotify(this);
    cv_.notify_all();
  }

 private:
  std::condition_variable_any cv_;
#else
  void wait(UniqueLock& lk) {
    std::unique_lock<std::mutex> native(lk.mutex()->native(),
                                        std::adopt_lock);
    cv_.wait(native);
    native.release();
  }
  template <typename Pred>
  void wait(UniqueLock& lk, Pred pred) {
    while (!pred()) wait(lk);
  }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
#endif
};

}  // namespace sync
}  // namespace analysis
}  // namespace gts

#endif  // GTS_ANALYSIS_SYNC_SYNC_H_
