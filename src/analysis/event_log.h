// A lightweight sequence-numbered event log that feeds the
// ScheduleValidator.
//
// PageCache records its pin lifecycle (pinned / released / evicted /
// inserted / invalidated) into it during a run, from the dispatch loop
// and the stream worker threads.
//
// The log is deliberately dumb: a mutex-guarded append with a per-log
// sequence number. Ordering semantics live in the validator
// (ScheduleValidator::CheckPinEvents); keeping the producer free of
// policy means a seeded test can synthesize any event sequence. This
// header stays light (no gpu/ or obs/ includes) so PageCache can depend
// on it without layering cycles.
#ifndef GTS_ANALYSIS_EVENT_LOG_H_
#define GTS_ANALYSIS_EVENT_LOG_H_

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace gts {
namespace analysis {

/// One PageCache pin-lifecycle event. kInvalidated marks a version
/// invalidation (gts::ingest published a newer page image): the cached
/// copy may no longer be pinned until a fresh kInserted re-admits the
/// page (the validator's I1 rule).
struct PinEvent {
  enum class Kind : uint8_t {
    kPinned,
    kReleased,
    kEvicted,
    kInserted,
    kInvalidated
  };
  Kind kind = Kind::kPinned;
  PageId pid = kInvalidPageId;
  uint64_t seq = 0;  ///< log-global order (assigned by the log)
};

/// Thread-safe appender; Take() drains (one validator read per run).
template <typename Event>
class EventLog {
 public:
  void Append(typename Event::Kind kind, PageId pid) {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(Event{kind, pid, seq_++});
  }

  std::vector<Event> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Event> out = std::move(events_);
    events_.clear();
    return out;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
  }

 private:
  std::mutex mu_;
  std::vector<Event> events_;
  uint64_t seq_ = 0;
};

using PinEventLog = EventLog<PinEvent>;

}  // namespace analysis
}  // namespace gts

#endif  // GTS_ANALYSIS_EVENT_LOG_H_
