// cachedPIDMap: the per-GPU topology-page cache of Section 3.3.
//
// When WABuf and the streaming buffers leave device memory free (BFS-like
// algorithms have tiny WA), GTS caches topology pages there so repeatedly
// visited pages skip the PCI-E copy. The cache fills once and never
// evicts (DESIGN.md §6.2): a traversal sweeps its frontier's pages
// cyclically, which leaves a recency-evicting LRU or FIFO cache holding
// exactly what the next level no longer needs, while a resident set that
// stays put gives the linear hit rate ~B/(S+L) of Figure 11.
#ifndef GTS_CORE_PAGE_CACHE_H_
#define GTS_CORE_PAGE_CACHE_H_

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/event_log.h"
#include "analysis/sync/sync.h"
#include "common/status.h"
#include "gpu/device.h"
#include "graph/types.h"
#include "obs/metrics.h"

namespace gts {

/// Device-memory page cache for one GPU.
///
/// Holds real page copies in device memory (so kernels can run against
/// them) and tracks hit statistics for Figure 11. Inserts stop when the
/// cache is full; a page leaves only through Invalidate() or Close(). The
/// page buffers outlive Close(), so a cache reopened for the next run
/// allocates nothing.
///
/// Thread-safety: every public method is safe to call concurrently. Page
/// bytes escape the cache lock only through a Pin, which holds a refcount
/// that invalidation respects.
class PageCache {
 public:
  /// RAII read lease on one cached page.
  ///
  /// While a Pin is alive the page's bytes cannot be freed (an
  /// invalidation defers until the last pin releases), so data() stays
  /// valid without holding the cache mutex (kernels run against it
  /// directly).
  /// Move-only; releasing (destruction, assignment, or Release()) unpins.
  /// Lifetime rule: every Pin must be released before its PageCache is
  /// closed or destroyed -- the cache aborts on outstanding pins rather
  /// than letting a stale handle dangle.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept { *this = std::move(other); }
    Pin& operator=(Pin&& other) noexcept;
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { Release(); }

    /// True when the lookup hit and the lease is still held.
    bool valid() const { return data_ != nullptr; }
    explicit operator bool() const { return valid(); }

    /// Device bytes of the pinned page; stable until Release(). Requires
    /// valid().
    const uint8_t* data() const { return data_; }
    PageId page_id() const { return pid_; }

    /// Drops the lease early (idempotent).
    void Release();

   private:
    friend class PageCache;
    Pin(PageCache* cache, PageId pid, const uint8_t* data)
        : cache_(cache), pid_(pid), data_(data) {}

    PageCache* cache_ = nullptr;
    PageId pid_ = 0;
    const uint8_t* data_ = nullptr;
#if GTS_SYNC_CHECK_ENABLED
    /// Thread that acquired the lease (LockRegistry pin-across-safe-point
    /// rule); pins may be *released* on another thread.
    std::thread::id sync_owner_{};
#endif
  };

  /// Reserves space for up to `capacity_bytes` of pages of `page_size`
  /// bytes each on `device`. A zero capacity disables the cache. With a
  /// `registry`, lookups/hits/inserts are also published as
  /// `<metric_prefix>.*` counters (cumulative across Open/Close cycles);
  /// the registry must outlive the cache.
  PageCache(gpu::Device* device, uint64_t capacity_bytes, uint64_t page_size,
            obs::MetricsRegistry* registry = nullptr,
            std::string_view metric_prefix = "cache");

  /// Aborts if any Pin is still outstanding (a live Pin would otherwise
  /// dangle into freed device memory).
  ~PageCache();

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  /// Restarts the statistics with `capacity_bytes` of room. Requires an
  /// empty cache.
  void Open(uint64_t capacity_bytes);
  /// Empties the cache and returns its device memory, keeping the page
  /// buffers. Aborts on outstanding pins; logs no pin events.
  void Close();

  /// Max pages the cache can hold.
  size_t capacity_pages() const { return capacity_pages_; }
  size_t size() const {
    analysis::sync::Lock lock(mu_);
    return size_;
  }
  /// Outstanding Pin handles across all pages.
  size_t pinned() const {
    analysis::sync::Lock lock(mu_);
    return total_pins_;
  }

  /// Looks up a page; on a hit returns a Pin leasing its device bytes (an
  /// invalid Pin on miss). Counts a lookup and (on success) a hit. Use
  /// this when the caller reads the page in place for an extended time
  /// (e.g. running a kernel against cached device memory): the Pin defers
  /// invalidation instead of escaping a raw pointer that a concurrent
  /// Invalidate could free mid-read.
  [[nodiscard]] Pin Lookup(PageId pid);

  /// True if present (and not stale), without touching stats.
  bool Contains(PageId pid) const {
    analysis::sync::Lock lock(mu_);
    return ResidentLocked(pid) && !entries_[pid].stale;
  }

  /// Inserts a copy of `bytes` for `pid`. No-op when the cache is full or
  /// disabled, or the page is already present (including a stale-but-
  /// pinned copy, which must drain first): the resident set never
  /// changes to make room. Fails only when the device cannot reserve the
  /// page, which leaves it on the streaming SPBuf/LPBuf path. `version`
  /// tags the entry with the page's ingest version (0 for a frozen
  /// graph).
  [[nodiscard]] Status Insert(PageId pid, const uint8_t* bytes,
                              uint64_t version = 0);

  /// Ingest version the resident copy of `pid` was inserted with; 0 when
  /// the page is not resident (or predates ingestion).
  uint64_t VersionOf(PageId pid) const;

  /// Drops `pid`'s cached copy because a newer page version was
  /// published. Unpinned (or absent): the entry is erased and true is
  /// returned. Pinned: the entry is marked stale -- the in-flight reader
  /// keeps its old-version snapshot, new lookups miss, and the entry is
  /// erased when the last pin releases -- and false is returned. Either
  /// way a kInvalidated pin event is logged for resident entries; after
  /// it, pinning `pid` again without a fresh kInserted violates the
  /// validator's I1 rule.
  [[nodiscard]] bool Invalidate(PageId pid);

  /// Streams pin/insert/erase events into `log` (pass null to detach) for
  /// the gts::analysis pin-lifetime validator. The log must outlive the
  /// cache or be detached first.
  void BindPinLog(analysis::PinEventLog* log) {
    analysis::sync::Lock lock(mu_);
    pin_log_ = log;
  }

  uint64_t lookups() const {
    analysis::sync::Lock lock(mu_);
    return lookups_;
  }
  uint64_t hits() const {
    analysis::sync::Lock lock(mu_);
    return hits_;
  }
  double hit_rate() const {
    analysis::sync::Lock lock(mu_);
    return lookups_ == 0 ? 0.0
                         : static_cast<double>(hits_) /
                               static_cast<double>(lookups_);
  }

 private:
  /// One page id's slot in the flat index (`data` null: not resident).
  struct Entry {
    uint8_t* data = nullptr;
    uint32_t pins = 0;
    uint64_t version = 0;  ///< ingest page version at insert time
    /// Invalidated while pinned: lookups miss, erased at last Unpin.
    bool stale = false;
  };

  bool ResidentLocked(PageId pid) const GTS_REQUIRES(mu_) {
    return pid < entries_.size() && entries_[pid].data != nullptr;
  }
  /// Stats-updating find; requires mu_ held.
  Entry* FindLocked(PageId pid) GTS_REQUIRES(mu_);
  /// Makes `pid` non-resident; its buffer goes to the free list and its
  /// device memory back to the device.
  void EraseLocked(PageId pid) GTS_REQUIRES(mu_);
  /// Pin::Release hook.
  void Unpin(PageId pid);

  mutable analysis::sync::Mutex mu_{"cache.page_cache",
                                    analysis::sync::level::kCache};
  gpu::Device* device_;
  uint64_t page_size_;

  // Registry handles (nullptr when no registry was given).
  obs::Counter* lookups_metric_ = nullptr;
  obs::Counter* hits_metric_ = nullptr;
  obs::Counter* inserts_metric_ = nullptr;

  analysis::PinEventLog* pin_log_ = nullptr;

  size_t capacity_pages_ = 0;  // set by Open, with no run in progress
  /// Indexed by page id; grows to the largest id inserted.
  std::vector<Entry> entries_ GTS_GUARDED_BY(mu_);
  size_t size_ GTS_GUARDED_BY(mu_) = 0;  ///< resident entries
  /// Every page buffer the cache ever allocated, and those not holding a
  /// resident page.
  std::vector<std::unique_ptr<uint8_t[]>> buffers_ GTS_GUARDED_BY(mu_);
  std::vector<uint8_t*> free_buffers_ GTS_GUARDED_BY(mu_);

  size_t total_pins_ GTS_GUARDED_BY(mu_) = 0;
  uint64_t lookups_ GTS_GUARDED_BY(mu_) = 0;
  uint64_t hits_ GTS_GUARDED_BY(mu_) = 0;
};

}  // namespace gts

#endif  // GTS_CORE_PAGE_CACHE_H_
