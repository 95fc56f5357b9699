// The pipelined prefetcher: turns the pass's page order into
// per-device read plans and keeps every DeviceQueue primed ahead of the
// stream demand.
//
// BeginPass snapshots which ordered pages will miss MMBuf and splits them
// per owning device, preserving the pass's order. Prime() then tops a
// device's queue up from its plan front; the IoEngine calls it on every
// Acquire so queues refill as completions are consumed. Priming stops at
// the queue depth (drain, not an error) or at the in-flight slot bound
// (reported as backpressure, exactly like cache_backpressure: the page
// simply waits to be demanded).
#ifndef GTS_IO_PREFETCHER_H_
#define GTS_IO_PREFETCHER_H_

#include <deque>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "io/device_queue.h"
#include "io/io_request.h"

namespace gts {
namespace io {

class Prefetcher {
 public:
  /// Rebuilds the per-device plans for one pass. `ordered` is the
  /// pass's page order; pages for which `resident` returns true
  /// are dropped (they will hit MMBuf). Offsets follow the store's
  /// striping: page j is the (j / num_devices)-th page on device
  /// j % num_devices.
  void BeginPass(const std::vector<PageId>& ordered, size_t num_devices,
                 uint64_t page_size,
                 const std::function<bool(PageId)>& resident) {
    plans_.assign(num_devices, {});
    pending_.clear();
    for (PageId pid : ordered) {
      if (resident(pid) || pending_.count(pid) > 0) continue;
      IoRequest req;
      req.pid = pid;
      req.offset = static_cast<uint64_t>(pid / num_devices) * page_size;
      req.length = page_size;
      plans_[pid % num_devices].push_back(req);
      pending_.insert(pid);
    }
  }

  /// True while pid awaits submission on some device plan.
  bool Pending(PageId pid) const { return pending_.count(pid) > 0; }

  bool PlanEmpty(size_t d) const { return plans_[d].empty(); }

  /// Pops the plan front for a forced (demand-path) submission.
  IoRequest PopFront(size_t d) {
    IoRequest req = plans_[d].front();
    plans_[d].pop_front();
    pending_.erase(req.pid);
    return req;
  }

  /// Tops `queue` up from the device's plan. Returns the number of pages
  /// submitted; sets *slots_exhausted when the in-flight bound (not the
  /// queue depth) stopped priming while work remained.
  int Prime(size_t d, DeviceQueue* queue, bool* slots_exhausted) {
    int submitted = 0;
    while (!plans_[d].empty() && !queue->QueueFull()) {
      if (queue->SlotsFull()) {
        *slots_exhausted = true;
        break;
      }
      const IoRequest& req = plans_[d].front();
      GTS_CHECK_OK(queue->Submit(req.pid, req.offset, req.length));
      pending_.erase(req.pid);
      plans_[d].pop_front();
      ++submitted;
    }
    return submitted;
  }

 private:
  std::vector<std::deque<IoRequest>> plans_;  // per device, pass order
  std::unordered_set<PageId> pending_;
};

}  // namespace io
}  // namespace gts

#endif  // GTS_IO_PREFETCHER_H_
