#include "core/page_cache.h"

#include <cstring>
#include <iterator>
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
    : device_(device),
      page_size_(page_size),
      capacity_pages_(page_size == 0 ? 0 : capacity_bytes / page_size),
      policy_(policy) {
  if (registry != nullptr) {
    const std::string prefix(metric_prefix);
    lookups_metric_ = &registry->GetCounter(prefix + ".lookups");
    hits_metric_ = &registry->GetCounter(prefix + ".hits");
    inserts_metric_ = &registry->GetCounter(prefix + ".inserts");
    backpressure_metric_ = &registry->GetCounter(prefix + ".backpressure");
  }
}

PageCache::~PageCache() {
  analysis::sync::Lock lock(mu_);
  GTS_CHECK(total_pins_ == 0)
      << "PageCache destroyed with " << total_pins_
      << " outstanding Pin(s); every Pin must be released first";
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
  Pin pin(this, pid, entry->buffer.data());
#if GTS_SYNC_CHECK_ENABLED
  pin.sync_owner_ = analysis::sync::LockRegistry::Global().NotePinAcquired();
#endif
  return pin;
}

bool PageCache::LookupInto(PageId pid, uint8_t* dst) {
  analysis::sync::Lock lock(mu_);
  const Entry* entry = FindLocked(pid);
  if (entry == nullptr) return false;
  std::memcpy(dst, entry->buffer.data(), page_size_);
  return true;
}

PageCache::Entry* PageCache::FindLocked(PageId pid) {
  ++lookups_;
  if (lookups_metric_ != nullptr) lookups_metric_->Add();
  auto it = entries_.find(pid);
  // A stale entry (invalidated while pinned) misses: its bytes are a
  // previous page version kept alive only for the pins already holding it.
  if (it == entries_.end() || it->second.stale) return nullptr;
  ++hits_;
  if (hits_metric_ != nullptr) hits_metric_->Add();
  if (policy_ == CachePolicy::kLru) {
    order_.erase(it->second.order_it);
    order_.push_front(pid);
    it->second.order_it = order_.begin();
  }
  return &it->second;
}

void PageCache::Unpin(PageId pid) {
  analysis::sync::Lock lock(mu_);
  auto it = entries_.find(pid);
  // Eviction skips pinned pages, so a pinned entry can never disappear.
  GTS_CHECK(it != entries_.end()) << "Unpin of evicted page " << pid;
  GTS_CHECK(it->second.pins > 0) << "Unpin without a pin on page " << pid;
  --it->second.pins;
  --total_pins_;
  if (pin_log_ != nullptr) {
    pin_log_->Append(analysis::PinEvent::Kind::kReleased, pid);
  }
  // Deferred invalidation: the last reader of a stale version just left,
  // so the old bytes can finally go.
  if (it->second.stale && it->second.pins == 0) {
    if (pin_log_ != nullptr) {
      pin_log_->Append(analysis::PinEvent::Kind::kEvicted, pid);
    }
    order_.erase(it->second.order_it);
    entries_.erase(it);
  }
}

uint64_t PageCache::VersionOf(PageId pid) const {
  analysis::sync::Lock lock(mu_);
  auto it = entries_.find(pid);
  return it == entries_.end() ? 0 : it->second.version;
}

bool PageCache::Invalidate(PageId pid) {
  analysis::sync::Lock lock(mu_);
  auto it = entries_.find(pid);
  if (it == entries_.end()) return true;
  if (pin_log_ != nullptr) {
    pin_log_->Append(analysis::PinEvent::Kind::kInvalidated, pid);
  }
  if (it->second.pins > 0) {
    // A kernel may still be reading the old version through its Pin;
    // keep the bytes but hide them from every future lookup.
    it->second.stale = true;
    return false;
  }
  order_.erase(it->second.order_it);
  entries_.erase(it);
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
  if (entries_.count(pid) != 0) return Status::OK();
  if (policy_ == CachePolicy::kPinned &&
      entries_.size() >= capacity_pages_) {
    return Status::OK();  // full: scan-resistant, keep the resident set
  }
  // The last victim's device buffer, reused for the new page: the device
  // keeps the same bytes reserved, and nothing is allocated or zeroed.
  gpu::DeviceBuffer buffer;
  while (entries_.size() >= capacity_pages_) {
    // Oldest-first victim scan that skips pages leased out via Pin; a
    // pinned page may be mid-read on a stream thread, so destroying its
    // DeviceBuffer here would be a use-after-free.
    auto victim = order_.end();
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      if (entries_.at(*it).pins == 0) {
        victim = std::next(it).base();
        break;
      }
    }
    if (victim == order_.end()) {
      ++insert_backpressure_;
      if (backpressure_metric_ != nullptr) backpressure_metric_->Add();
      return Status::CapacityExceeded(
          "page cache full: all " + std::to_string(entries_.size()) +
          " resident pages are pinned (page " + std::to_string(pid) +
          " stays on the streaming path)");
    }
    if (pin_log_ != nullptr) {
      pin_log_->Append(analysis::PinEvent::Kind::kEvicted, *victim);
    }
    auto evicted = entries_.find(*victim);
    buffer = std::move(evicted->second.buffer);
    entries_.erase(evicted);
    order_.erase(victim);
  }
  if (!buffer.valid()) {
    Result<gpu::DeviceBuffer> fresh = device_->Allocate(page_size_, "cache");
    if (!fresh.ok()) {
      return Status::OutOfDeviceMemory("cache[" + std::to_string(pid) +
                                       "]: " + fresh.status().message());
    }
    buffer = std::move(fresh).value();
  }
  std::memcpy(buffer.data(), bytes, page_size_);
  order_.push_front(pid);
  Entry entry;
  entry.buffer = std::move(buffer);
  entry.order_it = order_.begin();
  entry.version = version;
  entries_.emplace(pid, std::move(entry));
  if (inserts_metric_ != nullptr) inserts_metric_->Add();
  if (pin_log_ != nullptr) {
    pin_log_->Append(analysis::PinEvent::Kind::kInserted, pid);
  }
  return Status::OK();
}

}  // namespace gts
