#include "core/page_cache.h"

#include <cstring>
#include <string>
#include <utility>

#include "common/logging.h"
#if GTS_SYNC_CHECK_ENABLED
#include "analysis/sync/lock_registry.h"
#endif

namespace gts {

PageCache::PageCache(gpu::Device* device, uint64_t capacity_bytes,
                     uint64_t page_size, obs::MetricsRegistry* registry,
                     std::string_view metric_prefix)
    : device_(device), page_size_(page_size) {
  if (registry != nullptr) {
    const std::string prefix(metric_prefix);
    lookups_metric_ = &registry->GetCounter(prefix + ".lookups");
    hits_metric_ = &registry->GetCounter(prefix + ".hits");
    inserts_metric_ = &registry->GetCounter(prefix + ".inserts");
  }
  Open(capacity_bytes);
}

PageCache::~PageCache() { Close(); }

void PageCache::Open(uint64_t capacity_bytes) {
  analysis::sync::Lock lock(mu_);
  GTS_CHECK(size_ == 0) << "PageCache::Open on a cache holding pages";
  capacity_pages_ = page_size_ == 0 ? 0 : capacity_bytes / page_size_;
  lookups_ = 0;
  hits_ = 0;
}

void PageCache::Close() {
  analysis::sync::Lock lock(mu_);
  GTS_CHECK(total_pins_ == 0)
      << "PageCache closed with " << total_pins_
      << " outstanding Pin(s); every Pin must be released first";
  for (Entry& entry : entries_) {
    if (entry.data != nullptr) free_buffers_.push_back(entry.data);
    entry = Entry{};
  }
  device_->Release(size_ * page_size_);
  size_ = 0;
}

PageCache::Pin& PageCache::Pin::operator=(Pin&& other) noexcept {
  if (this != &other) {
    Release();
    cache_ = other.cache_;
    pid_ = other.pid_;
    data_ = other.data_;
#if GTS_SYNC_CHECK_ENABLED
    sync_owner_ = other.sync_owner_;
#endif
    other.cache_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

void PageCache::Pin::Release() {
  if (cache_ != nullptr && data_ != nullptr) {
    cache_->Unpin(pid_);
#if GTS_SYNC_CHECK_ENABLED
    analysis::sync::LockRegistry::Global().NotePinReleased(sync_owner_);
#endif
  }
  cache_ = nullptr;
  data_ = nullptr;
}

PageCache::Pin PageCache::Lookup(PageId pid) {
  analysis::sync::Lock lock(mu_);
  Entry* entry = FindLocked(pid);
  if (entry == nullptr) return Pin();
  ++entry->pins;
  ++total_pins_;
  if (pin_log_ != nullptr) {
    pin_log_->Append(analysis::PinEvent::Kind::kPinned, pid);
  }
  Pin pin(this, pid, entry->data);
#if GTS_SYNC_CHECK_ENABLED
  pin.sync_owner_ = analysis::sync::LockRegistry::Global().NotePinAcquired();
#endif
  return pin;
}

PageCache::Entry* PageCache::FindLocked(PageId pid) {
  ++lookups_;
  if (lookups_metric_ != nullptr) lookups_metric_->Add();
  // A stale entry (invalidated while pinned) misses: its bytes are a
  // previous page version kept alive only for the pins already holding it.
  if (!ResidentLocked(pid) || entries_[pid].stale) return nullptr;
  ++hits_;
  if (hits_metric_ != nullptr) hits_metric_->Add();
  return &entries_[pid];
}

void PageCache::EraseLocked(PageId pid) {
  free_buffers_.push_back(entries_[pid].data);
  entries_[pid] = Entry{};
  --size_;
  device_->Release(page_size_);
}

void PageCache::Unpin(PageId pid) {
  analysis::sync::Lock lock(mu_);
  // Only the last unpin erases a pinned entry, so it is still here.
  GTS_CHECK(ResidentLocked(pid)) << "Unpin of erased page " << pid;
  Entry& entry = entries_[pid];
  GTS_CHECK(entry.pins > 0) << "Unpin without a pin on page " << pid;
  --entry.pins;
  --total_pins_;
  if (pin_log_ != nullptr) {
    pin_log_->Append(analysis::PinEvent::Kind::kReleased, pid);
  }
  // Deferred invalidation: the last reader of a stale version just left,
  // so the old bytes can finally go.
  if (entry.stale && entry.pins == 0) {
    if (pin_log_ != nullptr) {
      pin_log_->Append(analysis::PinEvent::Kind::kEvicted, pid);
    }
    EraseLocked(pid);
  }
}

uint64_t PageCache::VersionOf(PageId pid) const {
  analysis::sync::Lock lock(mu_);
  return ResidentLocked(pid) ? entries_[pid].version : 0;
}

bool PageCache::Invalidate(PageId pid) {
  analysis::sync::Lock lock(mu_);
  if (!ResidentLocked(pid)) return true;
  if (pin_log_ != nullptr) {
    pin_log_->Append(analysis::PinEvent::Kind::kInvalidated, pid);
  }
  if (entries_[pid].pins > 0) {
    // A kernel may still be reading the old version through its Pin;
    // keep the bytes but hide them from every future lookup.
    entries_[pid].stale = true;
    return false;
  }
  EraseLocked(pid);
  return true;
}

Status PageCache::Insert(PageId pid, const uint8_t* bytes,
                         uint64_t version) {
  analysis::sync::Lock lock(mu_);
  // Full: keep the resident set (scan resistance). Already present --
  // including a stale-but-pinned copy, whose device buffer cannot be
  // replaced until its readers drain.
  if (size_ >= capacity_pages_ || ResidentLocked(pid)) return Status::OK();
  const Status reserved = device_->Reserve(page_size_, "cache");
  if (!reserved.ok()) {
    return Status::OutOfDeviceMemory("cache[" + std::to_string(pid) +
                                     "]: " + reserved.message());
  }
  if (free_buffers_.empty()) {
    // Uninitialised: the copy below fills every byte.
    buffers_.emplace_back(new uint8_t[page_size_]);
    free_buffers_.push_back(buffers_.back().get());
  }
  uint8_t* buffer = free_buffers_.back();
  free_buffers_.pop_back();
  std::memcpy(buffer, bytes, page_size_);
  if (pid >= entries_.size()) entries_.resize(static_cast<size_t>(pid) + 1);
  Entry& entry = entries_[pid];
  entry.data = buffer;
  entry.version = version;
  ++size_;
  if (inserts_metric_ != nullptr) inserts_metric_->Add();
  if (pin_log_ != nullptr) {
    pin_log_->Append(analysis::PinEvent::Kind::kInserted, pid);
  }
  return Status::OK();
}

}  // namespace gts
