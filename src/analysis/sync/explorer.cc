#include "analysis/sync/explorer.h"

#include <sstream>

#if GTS_SYNC_CHECK_ENABLED
#include <algorithm>
#include <atomic>
#include <chrono>
#endif

namespace gts {
namespace analysis {
namespace sync {

std::string Explorer::Result::ToString() const {
  std::ostringstream os;
  os << "explored " << schedules_run << " schedule(s), " << distinct_schedules
     << " distinct" << (exhausted ? " (bound exhausted)" : "") << ", "
     << failures.size() << " failure(s)";
  for (const Failure& f : failures) os << "\n  " << f.ToString();
  return os.str();
}

#if GTS_SYNC_CHECK_ENABLED

namespace {

/// Managed-thread identity: set for the lifetime of a ThreadMain.
thread_local Explorer* tls_explorer = nullptr;
thread_local int tls_index = -1;

/// The explorer currently inside a schedule, for notify hooks reached
/// from unmanaged threads (e.g. an engine worker completing a job a
/// managed thread waits on).
std::atomic<Explorer*> g_active{nullptr};

uint64_t XorShift(uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

}  // namespace

Explorer::Explorer() : Explorer(Options()) {}

Explorer::Explorer(Options options) : options_(std::move(options)) {}

Explorer::~Explorer() = default;

void Explorer::RecordFailure(const std::string& message) {
  failures_.push_back(Failure{schedule_, message});
}

void Explorer::Check(bool ok, const std::string& message) {
  if (ok) return;
  std::unique_lock<std::mutex> ctl(ctl_mu_);
  RecordFailure(message);
}

bool Explorer::Admissible(const Decision& d, size_t order_pos) const {
  const int tid = d.candidates[static_cast<size_t>(d.order[order_pos])];
  const int delta = (d.last_active_runnable && tid != d.last_active) ? 1 : 0;
  return d.preemptions_before + delta <= options_.max_preemptions;
}

bool Explorer::AdvancePlan() {
  while (!decisions_.empty()) {
    const Decision& d = decisions_.back();
    for (size_t p = d.order_pos + 1; p < d.order.size(); ++p) {
      if (!Admissible(d, p)) continue;
      plan_.clear();
      for (size_t i = 0; i + 1 < decisions_.size(); ++i) {
        const Decision& prev = decisions_[i];
        plan_.push_back(prev.order[prev.order_pos]);
      }
      plan_.push_back(d.order[p]);
      return true;
    }
    decisions_.pop_back();
  }
  return false;
}

std::vector<int> Explorer::RunnableLocked() const {
  std::vector<int> out;
  for (size_t i = 0; i < threads_.size(); ++i) {
    const ThreadState& t = *threads_[i];
    switch (t.state) {
      case State::kRunnable:
        out.push_back(static_cast<int>(i));
        break;
      case State::kBlockedMutex:
        // Runnable once no managed thread cooperatively holds the mutex
        // (the granted thread re-probes with try_lock).
        if (t.waiting_mutex != nullptr &&
            t.waiting_mutex->coop_owner.load(std::memory_order_acquire) ==
                -1) {
          out.push_back(static_cast<int>(i));
        }
        break;
      case State::kRunning:
      case State::kBlockedCv:
      case State::kDone:
        break;
    }
  }
  return out;
}

int Explorer::Choose(std::unique_lock<std::mutex>& ctl,
                     const std::vector<int>& candidates) {
  (void)ctl;  // held by the coordinator; Choose only mutates plan state
  if (candidates.size() == 1) return candidates[0];

  const size_t pos = decision_pos_++;
  const bool la_runnable =
      std::find(candidates.begin(), candidates.end(), last_active_) !=
      candidates.end();
  // Enumeration order: the non-preemptive default (keep the last-run
  // thread going) first, then the remaining candidates ascending.
  const size_t default_j =
      la_runnable ? static_cast<size_t>(
                        std::find(candidates.begin(), candidates.end(),
                                  last_active_) -
                        candidates.begin())
                  : 0;
  size_t chosen_j = default_j;

  if (mode_ == Mode::kReplay) {
    if (pos < replay_plan_.size()) {
      const int want = replay_plan_[pos];
      auto it = std::find(candidates.begin(), candidates.end(), want);
      if (it == candidates.end()) {
        RecordFailure("replay diverged at decision " + std::to_string(pos) +
                      ": thread " + std::to_string(want) +
                      " is not runnable");
        replay_diverged_ = true;
        abort_ = true;
        return candidates[0];
      }
      chosen_j = static_cast<size_t>(it - candidates.begin());
    }
  } else if (mode_ == Mode::kDfs) {
    if (pos < plan_.size()) chosen_j = static_cast<size_t>(plan_[pos]);
    Decision d;
    d.candidates = candidates;
    d.order.push_back(static_cast<int>(default_j));
    for (size_t j = 0; j < candidates.size(); ++j) {
      if (j != default_j) d.order.push_back(static_cast<int>(j));
    }
    auto it = std::find(d.order.begin(), d.order.end(),
                        static_cast<int>(chosen_j));
    d.order_pos = static_cast<size_t>(it - d.order.begin());
    d.last_active = last_active_;
    d.last_active_runnable = la_runnable;
    d.preemptions_before = preemptions_;
    decisions_.push_back(std::move(d));
  } else {  // kRandom: unbounded -- past-the-bound schedules live here
    chosen_j = static_cast<size_t>(XorShift(rng_state_) % candidates.size());
  }

  const int chosen = candidates[chosen_j];
  if (la_runnable && chosen != last_active_) ++preemptions_;
  if (!schedule_.empty()) schedule_ += ".";
  schedule_ += std::to_string(chosen);
  return chosen;
}

void Explorer::Grant(std::unique_lock<std::mutex>& ctl, int idx) {
  active_ = idx;
  last_active_ = idx;
  ctl_cv_.notify_all();
  ctl_cv_.wait(ctl, [&] { return active_ == -1; });
}

void Explorer::Park(std::unique_lock<std::mutex>& ctl, int idx, State state) {
  threads_[static_cast<size_t>(idx)]->state = state;
  active_ = -1;
  ctl_cv_.notify_all();
  ctl_cv_.wait(ctl, [&] { return active_ == idx; });
  if (abort_) throw AbortSchedule{};
  threads_[static_cast<size_t>(idx)]->state = State::kRunning;
}

void Explorer::ReleaseAllLocked(std::unique_lock<std::mutex>& ctl) {
  abort_ = true;
  for (;;) {
    int next = -1;
    for (size_t i = 0; i < threads_.size(); ++i) {
      if (threads_[i]->state != State::kDone) {
        next = static_cast<int>(i);
        break;
      }
    }
    if (next == -1) return;
    Grant(ctl, next);  // the thread observes abort_ and unwinds to done
  }
}

void Explorer::DeclareDeadlock(std::unique_lock<std::mutex>& ctl) {
  std::ostringstream os;
  os << "deadlock:";
  for (size_t i = 0; i < threads_.size(); ++i) {
    const ThreadState& t = *threads_[i];
    if (t.state == State::kDone) continue;
    os << " thread " << i;
    if (t.state == State::kBlockedMutex && t.waiting_mutex != nullptr) {
      os << " blocked acquiring '" << t.waiting_mutex->name() << "'";
      const int owner =
          t.waiting_mutex->coop_owner.load(std::memory_order_acquire);
      if (owner >= 0) os << " held by thread " << owner;
    } else if (t.state == State::kBlockedCv) {
      os << " waiting on a condvar with no pending notify";
    } else {
      os << " not yet scheduled";
    }
    os << ";";
  }
  RecordFailure(os.str());
  ReleaseAllLocked(ctl);
}

void Explorer::ThreadMain(int idx, std::function<void()> fn) {
  tls_explorer = this;
  tls_index = idx;
  bool aborted = false;
  {
    std::unique_lock<std::mutex> ctl(ctl_mu_);
    ctl_cv_.wait(ctl, [&] { return active_ == idx; });
    if (abort_) {
      aborted = true;
    } else {
      threads_[static_cast<size_t>(idx)]->state = State::kRunning;
    }
  }
  if (!aborted) {
    try {
      fn();
    } catch (const AbortSchedule&) {
    } catch (const std::exception& e) {
      std::unique_lock<std::mutex> ctl(ctl_mu_);
      RecordFailure("thread " + std::to_string(idx) +
                    " threw: " + e.what());
    } catch (...) {
      std::unique_lock<std::mutex> ctl(ctl_mu_);
      RecordFailure("thread " + std::to_string(idx) +
                    " threw a non-exception");
    }
  }
  {
    std::unique_lock<std::mutex> ctl(ctl_mu_);
    ThreadState& t = *threads_[static_cast<size_t>(idx)];
    // An aborted unwind can leave cooperatively-held mutexes locked;
    // force-release so the next schedule starts clean.
    for (auto it = t.held.rbegin(); it != t.held.rend(); ++it) {
      (*it)->coop_owner.store(-1, std::memory_order_release);
      (*it)->UnlockRaw();
    }
    t.held.clear();
    t.state = State::kDone;
    active_ = -1;
    ctl_cv_.notify_all();
  }
  tls_explorer = nullptr;
  tls_index = -1;
}

void Explorer::Run(std::vector<std::function<void()>> thunks) {
  {
    std::unique_lock<std::mutex> ctl(ctl_mu_);
    for (size_t i = 0; i < thunks.size(); ++i) {
      threads_.push_back(new ThreadState());
    }
    active_ = -1;
  }
  for (size_t i = 0; i < thunks.size(); ++i) {
    threads_[i]->thread = std::thread(
        [this, i, fn = std::move(thunks[i])]() mutable {
          ThreadMain(static_cast<int>(i), std::move(fn));
        });
  }

  std::unique_lock<std::mutex> ctl(ctl_mu_);
  for (;;) {
    bool all_done = true;
    for (const ThreadState* t : threads_) {
      if (t->state != State::kDone) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;

    std::vector<int> candidates = RunnableLocked();
    if (candidates.empty()) {
      // A condvar wait may be released by an unmanaged thread (e.g. an
      // engine worker); give it a bounded real-time window before
      // declaring the schedule dead.
      bool any_cv = false;
      for (const ThreadState* t : threads_) {
        any_cv |= t->state == State::kBlockedCv;
      }
      if (any_cv) {
        ctl_cv_.wait_for(
            ctl, std::chrono::milliseconds(options_.deadlock_timeout_ms));
        candidates = RunnableLocked();
      }
      if (candidates.empty()) {
        DeclareDeadlock(ctl);
        continue;
      }
    }

    const int idx = Choose(ctl, candidates);
    if (abort_) {
      ReleaseAllLocked(ctl);
      continue;
    }
    Grant(ctl, idx);
  }
  ctl.unlock();

  for (ThreadState* t : threads_) {
    if (t->thread.joinable()) t->thread.join();
    delete t;
  }
  threads_.clear();
}

bool Explorer::CoopLock(Mutex* m) {
  const int idx = tls_index;
  ThreadState& t = *threads_[static_cast<size_t>(idx)];
  std::unique_lock<std::mutex> ctl(ctl_mu_);
  // THE preemption point: every acquisition lets the scheduler switch.
  Park(ctl, idx, State::kRunnable);
  while (!m->TryLockRaw()) {
    if (m->coop_owner.load(std::memory_order_acquire) == -1) {
      // Held by an unmanaged thread: real-yield and retry (the
      // coordinator keeps treating us as runnable).
      ctl.unlock();
      std::this_thread::yield();
      ctl.lock();
      continue;
    }
    t.waiting_mutex = m;
    Park(ctl, idx, State::kBlockedMutex);
  }
  t.waiting_mutex = nullptr;
  m->coop_owner.store(idx, std::memory_order_release);
  t.held.push_back(m);
  return true;
}

bool Explorer::CoopUnlock(Mutex* m) {
  const int idx = tls_index;
  if (m->coop_owner.load(std::memory_order_acquire) != idx) return false;
  ThreadState& t = *threads_[static_cast<size_t>(idx)];
  m->coop_owner.store(-1, std::memory_order_release);
  m->UnlockRaw();
  auto it = std::find(t.held.begin(), t.held.end(), m);
  if (it != t.held.end()) t.held.erase(it);
  return true;
}

bool Explorer::CoopWait(CondVar* cv, UniqueLock* lk) {
  const int idx = tls_index;
  ThreadState& t = *threads_[static_cast<size_t>(idx)];
  {
    std::unique_lock<std::mutex> ctl(ctl_mu_);
    t.waiting_cv = cv;
  }
  lk->unlock();  // full wrapper unlock: registry bookkeeping + coop release
  {
    std::unique_lock<std::mutex> ctl(ctl_mu_);
    // A notify may have landed between registration and parking.
    if (t.waiting_cv == cv) Park(ctl, idx, State::kBlockedCv);
  }
  lk->lock();  // wrapper relock (its own yield + registry hooks)
  return true;
}

void Explorer::CoopNotify(CondVar* cv) {
  std::unique_lock<std::mutex> ctl(ctl_mu_);
  for (ThreadState* t : threads_) {
    if (t->waiting_cv != cv) continue;
    t->waiting_cv = nullptr;
    if (t->state == State::kBlockedCv) t->state = State::kRunnable;
  }
  ctl_cv_.notify_all();  // wake a coordinator parked in the cv grace wait
}

void Explorer::RunSchedule(const std::function<void(Explorer&)>& body,
                           Mode mode) {
  mode_ = mode;
  schedule_.clear();
  decisions_.clear();
  decision_pos_ = 0;
  preemptions_ = 0;
  last_active_ = -1;
  abort_ = false;
  replay_diverged_ = false;
  g_active.store(this, std::memory_order_release);
  body(*this);
  g_active.store(nullptr, std::memory_order_release);
}

Explorer::Result Explorer::Explore(
    const std::function<void(Explorer&)>& body) {
  Result res;
  failures_.clear();

  if (!options_.replay.empty()) {
    replay_plan_.clear();
    std::istringstream is(options_.replay);
    std::string part;
    while (std::getline(is, part, '.')) {
      if (!part.empty()) replay_plan_.push_back(std::stoi(part));
    }
    RunSchedule(body, Mode::kReplay);
    res.schedules_run = 1;
    res.distinct_schedules = 1;
    res.failures = failures_;
    return res;
  }

  std::unordered_set<std::string> seen;

  // Phase 1: exhaustive DFS within the preemption bound.
  plan_.clear();
  while (res.schedules_run < options_.max_schedules) {
    RunSchedule(body, Mode::kDfs);
    ++res.schedules_run;
    seen.insert(schedule_);
    if (options_.fail_fast && !failures_.empty()) break;
    if (!AdvancePlan()) {
      res.exhausted = true;
      break;
    }
  }

  // Phase 2: seeded-random beyond the bound (and beyond DFS coverage).
  if (!res.exhausted && !(options_.fail_fast && !failures_.empty())) {
    rng_state_ = options_.seed != 0 ? options_.seed : 0x9e3779b97f4a7c15ULL;
    while (res.schedules_run < options_.max_schedules) {
      RunSchedule(body, Mode::kRandom);
      ++res.schedules_run;
      seen.insert(schedule_);
      if (options_.fail_fast && !failures_.empty()) break;
    }
  }

  res.distinct_schedules = static_cast<int>(seen.size());
  res.failures = failures_;
  return res;
}

// ---- sync.h hook trampolines -------------------------------------------

namespace detail {

bool ExplorerLock(Mutex* m) {
  Explorer* ex = tls_explorer;
  return ex != nullptr && m->explorer_yields() && ex->CoopLock(m);
}

bool ExplorerUnlock(Mutex* m) {
  Explorer* ex = tls_explorer;
  return ex != nullptr && ex->CoopUnlock(m);
}

bool ExplorerWait(CondVar* cv, UniqueLock* lk) {
  Explorer* ex = tls_explorer;
  return ex != nullptr && lk->mutex()->explorer_yields() &&
         ex->CoopWait(cv, lk);
}

void ExplorerNotify(CondVar* cv) {
  Explorer* ex = tls_explorer;
  if (ex == nullptr) ex = g_active.load(std::memory_order_acquire);
  if (ex != nullptr) ex->CoopNotify(cv);
}

}  // namespace detail

#else  // !GTS_SYNC_CHECK_ENABLED

// OFF builds keep the API shape so tests compile: Explore runs the body
// once with plain sequential thunk execution (no serialization, no
// schedule enumeration). Tests gate real assertions on kSyncCheckCompiled.

Explorer::Explorer() : Explorer(Options()) {}

Explorer::Explorer(Options options) : options_(std::move(options)) {}

Explorer::~Explorer() = default;

void Explorer::Run(std::vector<std::function<void()>> thunks) {
  for (auto& fn : thunks) fn();
}

void Explorer::Check(bool ok, const std::string& message) {
  if (!ok) failures_.push_back(Failure{schedule_, message});
}

Explorer::Result Explorer::Explore(
    const std::function<void(Explorer&)>& body) {
  failures_.clear();
  body(*this);
  Result res;
  res.schedules_run = 1;
  res.distinct_schedules = 1;
  res.failures = failures_;
  return res;
}

#endif  // GTS_SYNC_CHECK_ENABLED

}  // namespace sync
}  // namespace analysis
}  // namespace gts
