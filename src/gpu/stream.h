// One host worker of a simulated GPU (the execution half of Section
// 3.2's streams).
//
// A Stream runs the kernel launches submitted to it on a host thread of
// its own, in the order they were submitted, while the producer -- the
// engine's driver thread -- stages the next pages. The engine gives each
// GPU one Stream, or in a multi-job epoch up to one per job, and sends
// all of a job's launches in a pass to the same one. The handoff is a
// bounded ring with exactly one producer and one consumer:
//
//   - Reserve() waits until the next ring slot is free, i.e. the task
//     that last used it has run and been destroyed, and returns the
//     slot's index. The slot's buffer (the engine stages one page there)
//     is the producer's to fill until Enqueue() publishes the slot's
//     task.
//   - Neither side takes a lock, signals a condition variable or
//     allocates per task on the steady path: a task is a gpu::Task held
//     inline in its slot, and the two sides meet through the ring's head
//     and tail counters. A side that finds nothing to do spins briefly,
//     then blocks on a condition variable; the other side wakes it only
//     when it saw it asleep.
//   - Park() drains the ring and returns once the worker is blocked, so
//     no worker spins while the engine is idle.
//
// The thread starts on the first Enqueue(). Streams carry the
// *execution* of kernels; the *simulated timing* of the same operations
// is computed separately and deterministically by ScheduleSimulator
// (schedule.h), because wall-clock time on the host says nothing about
// a 2-GPU machine.
#ifndef GTS_GPU_STREAM_H_
#define GTS_GPU_STREAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>

#include "analysis/sync/sync.h"
#include "gpu/task.h"

namespace gts {
namespace gpu {

/// One GPU worker thread and its single-producer task ring.
class Stream {
 public:
  /// A ring of `depth` (>= 1) slots, each with a buffer of `buffer_bytes`
  /// (allocated uninitialised: a buffer costs memory once written).
  explicit Stream(size_t depth = 16, size_t buffer_bytes = 0);
  /// Runs every submitted task, then stops the worker.
  ~Stream();

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  // Every method below belongs to the producer: one thread at a time,
  // ordered by the caller (the engine's driver role).

  /// Waits until the next ring slot is free and returns its index in
  /// [0, depth()). Enqueue() publishes into this slot.
  size_t Reserve();

  /// The buffer of ring slot `slot`: the producer's to fill between
  /// Reserve() and Enqueue(), then the op's to read until it finishes.
  uint8_t* buffer(size_t slot) {
    return buffers_.get() + slot * buffer_bytes_;
  }

  /// Publishes `op` into the next slot (reserving it first if needed) and
  /// returns. Ops run in FIFO order on the worker thread.
  void Enqueue(Task op);

  /// Blocks until every enqueued op has completed *and* been destroyed,
  /// so resources its closure captured are released when this returns.
  void Synchronize();

  /// Synchronize(), then waits until the worker is blocked on its
  /// condition variable: it no longer spins. The next Enqueue() wakes it.
  void Park();

  /// True while the worker is blocked waiting for work (or was never
  /// started). A worker that is running or spinning reads false.
  bool blocked() const;

  /// Ops enqueued over the stream's lifetime.
  uint64_t ops_issued() const { return head_.load(std::memory_order_relaxed); }

  size_t depth() const { return depth_; }

 private:
  void WorkerLoop();
  /// Worker: true once op `next` is published (spinning, then sleeping);
  /// false on shutdown.
  bool WaitForWork(uint64_t next);
  /// Producer: spins, then sleeps until `done()` holds.
  template <typename Done>
  void WaitUntil(Done done);

  const size_t depth_;
  const size_t buffer_bytes_;
  std::unique_ptr<Task[]> slots_;
  std::unique_ptr<uint8_t[]> buffers_;
  // One cache line per writer, so neither side's steady-path stores
  // evict what the other reads: the producer publishes head_ and keeps
  // its last view of tail_ beside it; the worker publishes tail_ and
  // keeps its last view of head_. A side re-reads the other's counter
  // only when its cached view says the ring is full (empty).
  alignas(64) std::atomic<uint64_t> head_{0};
  uint64_t seen_tail_ = 0;
  alignas(64) std::atomic<uint64_t> tail_{0};
  uint64_t seen_head_ = 0;
  /// Who is asleep, read by the other side to decide whether to wake it;
  /// written only around a sleep.
  alignas(64) std::atomic<bool> worker_sleeping_{false};
  std::atomic<bool> producer_waiting_{false};
  /// Park() asks the worker to skip its spin and block right away.
  std::atomic<bool> park_{false};

  // The blocking path only. Leaf lock: nothing is acquired under it. Only
  // the worker ends the producer's waits, so it is no sync::Explorer
  // scheduling point.
  mutable analysis::sync::Mutex mu_{"gpu.stream",
                                    analysis::sync::level::kStream,
                                    /*explorer_yields=*/false};
  analysis::sync::CondVar work_cv_;  ///< the worker waits for ops
  analysis::sync::CondVar done_cv_;  ///< the producer waits for progress
  bool shutdown_ = false;            // guarded by mu_
  std::thread worker_;
};

}  // namespace gpu
}  // namespace gts

#endif  // GTS_GPU_STREAM_H_
