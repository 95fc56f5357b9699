// PageStore: pages striped over storage devices by hash g(j), fronted by
// the main-memory buffer MMBuf with its bufferPIDMap (Algorithm 1).
#ifndef GTS_STORAGE_PAGE_STORE_H_
#define GTS_STORAGE_PAGE_STORE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/status.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "storage/paged_graph.h"
#include "storage/storage_device.h"

namespace gts {

/// Aggregate I/O counters for one run.
struct PageStoreStats {
  uint64_t buffer_hits = 0;
  uint64_t device_reads = 0;
  uint64_t bytes_read = 0;
};

/// Owns the secondary-storage copy of a PagedGraph plus MMBuf.
///
/// Page j lives on device g(j) = j mod num_devices (Section 4.1's striping).
/// Fetch() consults the buffer first (bufferPIDMap); on a miss it reads from
/// the owning device into MMBuf and reports the simulated I/O cost.
///
/// MMBuf holds max_resident = max(1, min(num_pages, buffer_capacity /
/// page_size)) pages in one arena of page slots. It is scan-resistant:
/// when the graph does not fit, the first max_resident - ring pages
/// admitted stay resident, and only a ring of ring = max(1, max_resident
/// / 4) slots turns over, oldest page first. A sweep larger than the
/// buffer (every BFS level, every PageRank iteration) then keeps hitting
/// the pinned pages, where LRU would evict each page just before its
/// next use. A hit touches no state. The arena has one spare slot when
/// pages can be evicted, so a failed device read leaves the buffer as it
/// was; it is allocated uninitialised, so slots never filled cost no
/// memory.
class PageStore {
 public:
  /// `buffer_capacity` is MMBuf size in bytes. Devices must be non-empty.
  PageStore(const PagedGraph* graph,
            std::vector<std::unique_ptr<StorageDevice>> devices,
            uint64_t buffer_capacity);

  /// Writes every page to its device. Must be called before Fetch.
  Status Init();

  /// Loads the whole graph into MMBuf (Algorithm 1 lines 9-10). Requires
  /// buffer_capacity >= total topology bytes.
  Status PreloadAll();

  /// True if the graph fits entirely in MMBuf.
  bool GraphFitsInBuffer() const;

  struct FetchResult {
    const uint8_t* data = nullptr;  ///< page bytes, valid until next eviction
    bool buffer_hit = false;
    size_t device_index = 0;   ///< meaningful when !buffer_hit
    SimTime io_cost = 0.0;     ///< simulated device time; 0 on buffer hit
    uint32_t slot = 0;         ///< the MMBuf slot holding the page
  };

  /// Returns the page bytes, fetching from the device on a buffer miss.
  /// A miss is priced at the device's full per-request ReadCost;
  /// io::IoEngine::Acquire reads every page through here and records the
  /// op (discounting a sequential continuation when asked to).
  Result<FetchResult> Fetch(PageId pid);

  /// True when `pid` currently sits in MMBuf. Touches no counters.
  bool Resident(PageId pid) const {
    return pid < slot_of_.size() && slot_of_[pid] != kNoSlot;
  }

  /// True when MMBuf holds fewer pages than the graph has, so a device
  /// read may land in a slot another page was read from.
  bool Evicts() const { return max_resident_ < graph_->num_pages(); }

  /// Reads a non-resident page from its device into a free MMBuf slot
  /// and counts the device read. The page is pinned while fewer than
  /// max_resident - ring pages are; otherwise it joins the ring, and a
  /// full ring drops its oldest page. No simulated cost is computed:
  /// Fetch's miss path prices it.
  Status StageFromDevice(PageId pid);

  /// g(j): which device holds page j.
  size_t DeviceOfPage(PageId pid) const { return pid % devices_.size(); }

  /// Byte offset of page j on device g(j): its position among the pages
  /// striped to that device.
  uint64_t OffsetOfPage(PageId pid) const {
    return static_cast<uint64_t>(pid / devices_.size()) *
           graph_->config().page_size;
  }

  /// Bytes of striped page data on device `d` -- the first offset free
  /// for out-of-band writes (ingest delta records land past the page
  /// region).
  uint64_t DevicePageBytes(size_t d) const;

  /// Raw write-through to device `d` (ingest delta records). MMBuf is not
  /// involved; the io engine's write path does the pricing.
  Status WriteDevice(size_t d, uint64_t offset, const uint8_t* data,
                     uint64_t len);

  /// In-band rewrite of one base page (ingest compaction install): writes
  /// `len` bytes over `pid`'s striped slot on its owning device and drops
  /// any MMBuf copy, so the next fetch re-reads the new image. A dropped
  /// pinned page leaves room for the next page admitted to be pinned.
  /// Only the io engine's rewrite path may call this (it does the
  /// pricing).
  Status RewritePage(PageId pid, const uint8_t* data, uint64_t len);

  size_t num_devices() const { return devices_.size(); }
  const StorageDevice& device(size_t i) const { return *devices_[i]; }
  uint64_t buffer_capacity() const { return buffer_capacity_; }

  const PageStoreStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PageStoreStats{}; }

  /// Publishes MMBuf counters (`store.buffer_hits` / `store.device_reads`
  /// / `store.bytes_read`) and each device's counters into `registry`.
  /// The store shares ownership: a store bound by one engine stays safe
  /// to use after that engine is destroyed. Rebinding (e.g. by a second
  /// engine over the same store) switches to the new registry.
  void BindMetrics(std::shared_ptr<obs::MetricsRegistry> registry);

 private:
  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  uint8_t* SlotBytes(uint32_t slot) {
    return arena_.get() +
           static_cast<uint64_t>(slot) * graph_->config().page_size;
  }
  /// Drops `slot`'s page from MMBuf; the slot becomes free.
  void FreeSlot(uint32_t slot);

  const PagedGraph* graph_;
  std::vector<std::unique_ptr<StorageDevice>> devices_;
  uint64_t buffer_capacity_;
  bool initialized_ = false;

  // MMBuf. bufferPIDMap is slot_of_ (page id -> slot); page_of_ is the
  // reverse. The ring's slots sit in fifo_, oldest first; every other
  // resident page is pinned.
  uint32_t max_resident_ = 0;
  uint32_t ring_ = 0;  ///< 0 when every page fits
  uint32_t pinned_ = 0;
  std::unique_ptr<uint8_t[]> arena_;
  std::vector<uint32_t> slot_of_;
  std::vector<PageId> page_of_;
  std::deque<uint32_t> fifo_;
  std::vector<uint32_t> free_slots_;

  PageStoreStats stats_;

  std::shared_ptr<obs::MetricsRegistry> registry_;
  obs::Counter* buffer_hits_metric_ = nullptr;
  obs::Counter* device_reads_metric_ = nullptr;
  obs::Counter* bytes_read_metric_ = nullptr;
};

/// Builds an in-memory-device store (storage type "in-memory").
std::unique_ptr<PageStore> MakeInMemoryStore(const PagedGraph* graph);

/// Builds a store over `n` simulated SSDs (memory-backed bytes, SSD timing).
std::unique_ptr<PageStore> MakeSsdStore(const PagedGraph* graph, size_t n,
                                        uint64_t buffer_capacity);

/// Builds a store over `n` simulated HDDs.
std::unique_ptr<PageStore> MakeHddStore(const PagedGraph* graph, size_t n,
                                        uint64_t buffer_capacity);

}  // namespace gts

#endif  // GTS_STORAGE_PAGE_STORE_H_
