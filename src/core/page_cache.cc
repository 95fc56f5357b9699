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
                     uint64_t page_size, CachePolicy policy,
                     obs::MetricsRegistry* registry,
                     std::string_view metric_prefix)
    : device_(device), page_size_(page_size), policy_(policy) {
  if (registry != nullptr) {
    const std::string prefix(metric_prefix);
    lookups_metric_ = &registry->GetCounter(prefix + ".lookups");
    hits_metric_ = &registry->GetCounter(prefix + ".hits");
    inserts_metric_ = &registry->GetCounter(prefix + ".inserts");
    backpressure_metric_ = &registry->GetCounter(prefix + ".backpressure");
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
  insert_backpressure_ = 0;
}

void PageCache::Close() {
  analysis::sync::Lock lock(mu_);
  GTS_CHECK(total_pins_ == 0)
      << "PageCache closed with " << total_pins_
      << " outstanding Pin(s); every Pin must be released first";
  for (PageId pid = order_.older; pid != kSentinel;) {
    const PageId older = entries_[pid].older;
    free_buffers_.push_back(entries_[pid].data);
    entries_[pid] = Entry{};
    pid = older;
  }
  device_->Release(size_ * page_size_);
  size_ = 0;
  order_ = Entry{};
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
  if (policy_ == CachePolicy::kLru) {
    UnlinkLocked(pid);
    LinkFrontLocked(pid);
  }
  return &entries_[pid];
}

void PageCache::LinkFrontLocked(PageId pid) {
  entries_[pid].newer = kSentinel;
  entries_[pid].older = order_.older;
  Node(order_.older).newer = pid;
  order_.older = pid;
}

void PageCache::EraseLocked(PageId pid) {
  UnlinkLocked(pid);
  free_buffers_.push_back(entries_[pid].data);
  entries_[pid] = Entry{};
  --size_;
  device_->Release(page_size_);
}

void PageCache::Unpin(PageId pid) {
  analysis::sync::Lock lock(mu_);
  // Eviction skips pinned pages, so a pinned entry can never disappear.
  GTS_CHECK(ResidentLocked(pid)) << "Unpin of evicted page " << pid;
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

std::string_view CachePolicyName(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kPinned:
      return "pinned";
    case CachePolicy::kLru:
      return "LRU";
    case CachePolicy::kFifo:
      return "FIFO";
  }
  return "?";
}

Status PageCache::Insert(PageId pid, const uint8_t* bytes,
                         uint64_t version) {
  analysis::sync::Lock lock(mu_);
  if (capacity_pages_ == 0) return Status::OK();
  // Already present -- including a stale-but-pinned copy, whose device
  // buffer cannot be replaced until its readers drain.
  if (ResidentLocked(pid)) return Status::OK();
  if (policy_ == CachePolicy::kPinned && size_ >= capacity_pages_) {
    return Status::OK();  // full: scan-resistant, keep the resident set
  }
  // The victim's buffer, reused for the new page: the device keeps the
  // same bytes reserved, and nothing is allocated.
  uint8_t* buffer = nullptr;
  // Capacity is fixed while pages are resident, so one eviction makes
  // room.
  if (size_ >= capacity_pages_) {
    // Oldest-first victim scan that skips pages leased out via Pin; a
    // pinned page may be mid-read by a kernel, so reusing its buffer here
    // would overwrite bytes under the reader.
    PageId victim = order_.newer;
    while (victim != kSentinel && entries_[victim].pins > 0) {
      victim = entries_[victim].newer;
    }
    if (victim == kSentinel) {
      ++insert_backpressure_;
      if (backpressure_metric_ != nullptr) backpressure_metric_->Add();
      return Status::CapacityExceeded(
          "page cache full: all " + std::to_string(size_) +
          " resident pages are pinned (page " + std::to_string(pid) +
          " stays on the streaming path)");
    }
    if (pin_log_ != nullptr) {
      pin_log_->Append(analysis::PinEvent::Kind::kEvicted, victim);
    }
    buffer = entries_[victim].data;
    UnlinkLocked(victim);
    entries_[victim] = Entry{};
    --size_;
  }
  if (buffer == nullptr) {
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
    buffer = free_buffers_.back();
    free_buffers_.pop_back();
  }
  std::memcpy(buffer, bytes, page_size_);
  if (pid >= entries_.size()) entries_.resize(static_cast<size_t>(pid) + 1);
  Entry& entry = entries_[pid];
  entry.data = buffer;
  entry.version = version;
  LinkFrontLocked(pid);
  ++size_;
  if (inserts_metric_ != nullptr) inserts_metric_->Add();
  if (pin_log_ != nullptr) {
    pin_log_->Append(analysis::PinEvent::Kind::kInserted, pid);
  }
  return Status::OK();
}

}  // namespace gts
