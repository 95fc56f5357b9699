#include "gpu/stream.h"

#include "common/logging.h"

namespace gts {
namespace gpu {

namespace {

// Polls before a side blocks: long enough to cover the gap between two
// pages of a pass (a sleep and wake-up costs two system calls on the
// critical path), short enough that an idle side soon stops burning a
// core.
constexpr int kSpinPolls = 1 << 12;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

// Lost wake-ups are excluded by two store-then-load pairs, all seq_cst:
// the producer publishes head_ and then reads worker_sleeping_, while the
// sleeping worker sets worker_sleeping_ and then re-reads head_ (under
// mu_, before it waits); the worker publishes tail_ and then reads
// producer_waiting_, while a waiting producer sets producer_waiting_ and
// then re-reads its condition (under mu_). In each pair at least one side
// sees the other's store: either the sleeper finds the new value and
// does not wait, or the waker finds the sleeper and notifies under mu_,
// which it can only take once the sleeper is inside its wait. The
// producer that wakes the worker also clears worker_sleeping_ (one
// wake-up per sleep), so the worker sets it again after every wake-up
// before it re-checks head_.

Stream::Stream(size_t depth, size_t buffer_bytes)
    : depth_(depth),
      buffer_bytes_(buffer_bytes),
      slots_(std::make_unique<Task[]>(depth)),
      buffers_(new uint8_t[depth * buffer_bytes]) {
  GTS_CHECK(depth_ >= 1) << "a stream needs at least one ring slot";
}

Stream::~Stream() {
  if (!worker_.joinable()) return;
  Synchronize();
  {
    analysis::sync::Lock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  worker_.join();
}

size_t Stream::Reserve() {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  if (head - seen_tail_ == depth_) {
    seen_tail_ = tail_.load(std::memory_order_acquire);
    if (head - seen_tail_ == depth_) {
      WaitUntil([this, head] {
        seen_tail_ = tail_.load(std::memory_order_seq_cst);
        return head - seen_tail_ < depth_;
      });
    }
  }
  return head % depth_;
}

void Stream::Enqueue(Task op) {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  slots_[Reserve()] = std::move(op);
  if (!worker_.joinable()) worker_ = std::thread([this] { WorkerLoop(); });
  park_.store(false, std::memory_order_relaxed);
  head_.store(head + 1, std::memory_order_seq_cst);
  // One wake-up per sleep: the first producer to see the worker asleep
  // clears the flag and notifies.
  if (worker_sleeping_.load(std::memory_order_seq_cst) &&
      worker_sleeping_.exchange(false, std::memory_order_seq_cst)) {
    analysis::sync::Lock lock(mu_);
    work_cv_.notify_one();
  }
}

void Stream::Synchronize() {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  seen_tail_ = tail_.load(std::memory_order_acquire);
  if (seen_tail_ == head) return;
  WaitUntil([this, head] {
    seen_tail_ = tail_.load(std::memory_order_seq_cst);
    return seen_tail_ == head;
  });
}

void Stream::Park() {
  if (!worker_.joinable()) return;
  Synchronize();
  park_.store(true, std::memory_order_seq_cst);
  WaitUntil([this] {
    return worker_sleeping_.load(std::memory_order_seq_cst);
  });
}

bool Stream::blocked() const {
  // Under mu_ a worker that set worker_sleeping_ is inside its wait: it
  // holds mu_ from the store until the wait releases it.
  analysis::sync::Lock lock(mu_);
  return !worker_.joinable() ||
         worker_sleeping_.load(std::memory_order_relaxed);
}

template <typename Done>
void Stream::WaitUntil(Done done) {
  for (int i = 0; i < kSpinPolls; ++i) {
    if (done()) return;
    CpuRelax();
  }
  analysis::sync::UniqueLock lock(mu_);
  producer_waiting_.store(true, std::memory_order_seq_cst);
  while (!done()) done_cv_.wait(lock);
  producer_waiting_.store(false, std::memory_order_relaxed);
}

bool Stream::WaitForWork(uint64_t next) {
  for (int i = 0; i < kSpinPolls && !park_.load(std::memory_order_relaxed);
       ++i) {
    seen_head_ = head_.load(std::memory_order_acquire);
    if (seen_head_ != next) return true;
    CpuRelax();
  }
  analysis::sync::UniqueLock lock(mu_);
  worker_sleeping_.store(true, std::memory_order_seq_cst);
  // A parking producer waits for exactly this.
  if (producer_waiting_.load(std::memory_order_seq_cst)) {
    done_cv_.notify_all();
  }
  while (head_.load(std::memory_order_seq_cst) == next && !shutdown_) {
    work_cv_.wait(lock);
    // Re-arm: the wake-up may answer an op this worker already took, and
    // the producer that sent it cleared the flag.
    worker_sleeping_.store(true, std::memory_order_seq_cst);
  }
  worker_sleeping_.store(false, std::memory_order_seq_cst);
  seen_head_ = head_.load(std::memory_order_acquire);
  return seen_head_ != next;
}

void Stream::WorkerLoop() {
  uint64_t next = 0;
  for (;;) {
    if (seen_head_ == next) {
      seen_head_ = head_.load(std::memory_order_acquire);
      if (seen_head_ == next && !WaitForWork(next)) return;
      continue;
    }
    Task& op = slots_[next % depth_];
    op();
    // Destroy the closure before reporting the slot free: Synchronize()
    // promises its captures are released.
    op.Reset();
    tail_.store(++next, std::memory_order_seq_cst);
    if (producer_waiting_.load(std::memory_order_seq_cst)) {
      analysis::sync::Lock lock(mu_);
      done_cv_.notify_all();
    }
  }
}

}  // namespace gpu
}  // namespace gts
