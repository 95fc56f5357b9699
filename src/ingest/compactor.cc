#include "ingest/compactor.h"

#include <utility>

namespace gts {
namespace ingest {

Compactor::Compactor(DeltaStore* store, uint32_t threshold)
    : store_(store), threshold_(threshold) {}

Compactor::~Compactor() { Stop(); }

void Compactor::Start() {
  analysis::sync::Lock lock(mu_);
  if (started_) return;
  started_ = true;
  stop_ = false;
  thread_ = std::thread(&Compactor::Loop, this);
}

void Compactor::Stop() {
  {
    analysis::sync::Lock lock(mu_);
    if (!started_) return;
    stop_ = true;
    cv_.notify_all();
  }
  thread_.join();
  analysis::sync::Lock lock(mu_);
  started_ = false;
}

void Compactor::Nudge() {
  analysis::sync::Lock lock(mu_);
  nudged_ = true;
  cv_.notify_all();
}

std::vector<DeltaStore::Compaction> Compactor::TakeCompleted() {
  analysis::sync::Lock lock(mu_);
  std::vector<DeltaStore::Compaction> out = std::move(completed_);
  completed_.clear();
  pending_install_.clear();
  return out;
}

void Compactor::Loop() {
  for (;;) {
    std::unordered_set<PageId> exclude;
    {
      analysis::sync::UniqueLock lock(mu_);
      cv_.wait(lock, [&] { return stop_ || nudged_; });
      if (stop_) return;
      nudged_ = false;
      exclude = pending_install_;
    }

    // Rebuild every qualifying chain that is not already awaiting
    // install, one page at a time so TakeCompleted never waits long.
    for (PageId pid : store_->CompactionCandidates(threshold_)) {
      if (exclude.count(pid) != 0) continue;
      auto compaction = store_->Build(pid);
      if (!compaction.has_value()) continue;
      analysis::sync::Lock lock(mu_);
      if (stop_) return;
      pending_install_.insert(pid);
      completed_.push_back(std::move(*compaction));
    }
  }
}

}  // namespace ingest
}  // namespace gts
