#include "storage/page_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "core/page_cache.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "gpu/device.h"
#include "storage/page_builder.h"
#include "storage/storage_device.h"

namespace gts {
namespace {

PagedGraph SmallPagedGraph() {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  EdgeList list = std::move(GenerateRmat(p)).ValueOrDie();
  return std::move(BuildPagedGraph(CsrGraph::FromEdgeList(list),
                                   PageConfig::Small22()))
      .ValueOrDie();
}

// ------------------------------------------------------------- devices

TEST(StorageDeviceTest, MemoryDeviceRoundTrip) {
  MemoryDevice dev;
  const uint8_t data[] = {1, 2, 3, 4, 5};
  ASSERT_TRUE(dev.Write(100, data, sizeof(data)).ok());
  uint8_t out[5] = {};
  ASSERT_TRUE(dev.Read(100, out, sizeof(out)).ok());
  EXPECT_EQ(std::memcmp(data, out, sizeof(data)), 0);
}

TEST(StorageDeviceTest, MemoryDeviceReadPastEndFails) {
  MemoryDevice dev;
  uint8_t out[4];
  EXPECT_EQ(dev.Read(0, out, 4).code(), StatusCode::kIOError);
}

TEST(StorageDeviceTest, MemoryDeviceUnwrittenGapReadsZeros) {
  MemoryDevice dev;
  const uint8_t head[] = {1, 2, 3};
  const uint8_t tail[] = {7, 8, 9};
  const uint64_t far = 3 * MemoryDevice::kChunkBytes + 5;
  ASSERT_TRUE(dev.Write(0, head, sizeof(head)).ok());
  ASSERT_TRUE(dev.Write(far, tail, sizeof(tail)).ok());
  // The gap spans a partly written chunk and two chunks no write touched.
  std::vector<uint8_t> out(far + sizeof(tail), 0xAB);
  ASSERT_TRUE(dev.Read(0, out.data(), out.size()).ok());
  EXPECT_EQ(std::memcmp(out.data(), head, sizeof(head)), 0);
  EXPECT_TRUE(std::all_of(out.begin() + sizeof(head), out.begin() + far,
                          [](uint8_t b) { return b == 0; }));
  EXPECT_EQ(std::memcmp(out.data() + far, tail, sizeof(tail)), 0);
}

TEST(StorageDeviceTest, MemoryDeviceStraddlesChunkBoundary) {
  MemoryDevice dev;
  std::vector<uint8_t> data(3 * MemoryDevice::kChunkBytes / 2);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  // Starts 1,000 bytes before the first boundary, ends inside chunk 2.
  const uint64_t offset = MemoryDevice::kChunkBytes - 1000;
  ASSERT_TRUE(dev.Write(offset, data.data(), data.size()).ok());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(dev.Read(offset, out.data(), out.size()).ok());
  EXPECT_EQ(out, data);
  // A short read across the first boundary alone.
  uint8_t around[16];
  ASSERT_TRUE(dev.Read(MemoryDevice::kChunkBytes - 8, around, 16).ok());
  EXPECT_EQ(std::memcmp(around, data.data() + 992, 16), 0);
}

TEST(StorageDeviceTest, MemoryDeviceReadEndingPastExtentFails) {
  MemoryDevice dev;
  std::vector<uint8_t> data(100, 0x11);
  ASSERT_TRUE(dev.Write(MemoryDevice::kChunkBytes, data.data(), 100).ok());
  std::vector<uint8_t> out(64);
  EXPECT_TRUE(dev.Read(MemoryDevice::kChunkBytes + 36, out.data(), 64).ok());
  EXPECT_EQ(dev.Read(MemoryDevice::kChunkBytes + 37, out.data(), 64).code(),
            StatusCode::kIOError);
  EXPECT_EQ(dev.Read(10, out.data(), MemoryDevice::kChunkBytes + 91).code(),
            StatusCode::kIOError);
}

TEST(StorageDeviceTest, FileDeviceRoundTrip) {
  const std::string path = ::testing::TempDir() + "/gts_filedev_test.bin";
  auto dev = FileDevice::Create(path, DeviceTimingParams::PcieSsd());
  ASSERT_TRUE(dev.ok());
  std::vector<uint8_t> data(4096);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  ASSERT_TRUE((*dev)->Write(8192, data.data(), data.size()).ok());
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE((*dev)->Read(8192, out.data(), out.size()).ok());
  EXPECT_EQ(data, out);
  std::remove(path.c_str());
}

TEST(StorageDeviceTest, ReadCostFollowsBandwidthModel) {
  DeviceTimingParams ssd = DeviceTimingParams::PcieSsd();
  // 2.35 GB/s: a 1 MiB read takes latency + ~446 us.
  EXPECT_NEAR(ssd.ReadCost(1 << 20), 20e-6 + 1048576.0 / 2.35e9, 1e-9);
  DeviceTimingParams hdd = DeviceTimingParams::Hdd();
  EXPECT_GT(hdd.ReadCost(1 << 20), 10 * ssd.ReadCost(1 << 20));
  EXPECT_DOUBLE_EQ(DeviceTimingParams::Memory().ReadCost(1 << 20), 0.0);
}

// ------------------------------------------------------------ PageStore

TEST(PageStoreTest, FetchReturnsExactPageBytes) {
  PagedGraph graph = SmallPagedGraph();
  auto store = MakeSsdStore(&graph, 2, /*buffer_capacity=*/1 << 20);
  for (PageId pid = 0; pid < graph.num_pages(); pid += 7) {
    auto fetch = store->Fetch(pid);
    ASSERT_TRUE(fetch.ok());
    EXPECT_EQ(std::memcmp(fetch->data, graph.page_bytes(pid).data(),
                          graph.config().page_size),
              0)
        << "page " << pid;
  }
}

TEST(PageStoreTest, StripesPagesAcrossDevices) {
  PagedGraph graph = SmallPagedGraph();
  auto store = MakeSsdStore(&graph, 3, /*buffer_capacity=*/1 << 10);
  EXPECT_EQ(store->DeviceOfPage(0), 0u);
  EXPECT_EQ(store->DeviceOfPage(1), 1u);
  EXPECT_EQ(store->DeviceOfPage(2), 2u);
  EXPECT_EQ(store->DeviceOfPage(3), 0u);
  // Reads actually route to the right device and return correct bytes.
  auto fetch = store->Fetch(5);
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch->device_index, 2u);
}

TEST(PageStoreTest, BufferHitsSkipIo) {
  PagedGraph graph = SmallPagedGraph();
  auto store = MakeSsdStore(&graph, 1, /*buffer_capacity=*/64 * kKiB);
  auto first = store->Fetch(0);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->buffer_hit);
  EXPECT_GT(first->io_cost, 0.0);
  auto second = store->Fetch(0);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->buffer_hit);
  EXPECT_DOUBLE_EQ(second->io_cost, 0.0);
  EXPECT_EQ(store->stats().buffer_hits, 1u);
  EXPECT_EQ(store->stats().device_reads, 1u);
}

TEST(PageStoreTest, EvictsLruWhenOverCapacity) {
  PagedGraph graph = SmallPagedGraph();
  ASSERT_GE(graph.num_pages(), 4u);
  // Room for two 1 KiB pages.
  auto store = MakeSsdStore(&graph, 1, /*buffer_capacity=*/2 * kKiB);
  ASSERT_TRUE(store->Fetch(0).ok());
  ASSERT_TRUE(store->Fetch(1).ok());
  ASSERT_TRUE(store->Fetch(2).ok());  // evicts page 0
  auto again = store->Fetch(0);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->buffer_hit);
}

TEST(PageStoreTest, PreloadAllRequiresCapacity) {
  PagedGraph graph = SmallPagedGraph();
  auto tiny = MakeSsdStore(&graph, 1, /*buffer_capacity=*/1 * kKiB);
  EXPECT_EQ(tiny->PreloadAll().code(), StatusCode::kFailedPrecondition);
  auto big = MakeSsdStore(&graph, 1, graph.TotalTopologyBytes());
  EXPECT_TRUE(big->GraphFitsInBuffer());
  ASSERT_TRUE(big->PreloadAll().ok());
  big->ResetStats();
  ASSERT_TRUE(big->Fetch(0).ok());
  EXPECT_EQ(big->stats().buffer_hits, 1u);
}

TEST(PageStoreTest, OutOfRangePidRejected) {
  PagedGraph graph = SmallPagedGraph();
  auto store = MakeInMemoryStore(&graph);
  EXPECT_EQ(store->Fetch(static_cast<PageId>(graph.num_pages())).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PageStoreTest, InMemoryStoreHasZeroIoCost) {
  PagedGraph graph = SmallPagedGraph();
  auto store = MakeInMemoryStore(&graph);
  auto fetch = store->Fetch(3);
  ASSERT_TRUE(fetch.ok());
  EXPECT_DOUBLE_EQ(fetch->io_cost, 0.0);
}

// ------------------------------------------------------------ PageCache

TEST(PageCacheTest, LruEvictsLeastRecentlyUsed) {
  gpu::Device device(0, 10 * kKiB);
  PageCache cache(&device, 2 * kKiB, 1 * kKiB, CachePolicy::kLru);
  std::vector<uint8_t> page(1 * kKiB, 0xAB);
  ASSERT_TRUE(cache.Insert(1, page.data()).ok());
  ASSERT_TRUE(cache.Insert(2, page.data()).ok());
  EXPECT_TRUE(cache.Lookup(1).valid());  // touch 1; 2 becomes LRU
  ASSERT_TRUE(cache.Insert(3, page.data()).ok());
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(PageCacheTest, FifoEvictsOldestInsert) {
  gpu::Device device(0, 10 * kKiB);
  PageCache cache(&device, 2 * kKiB, 1 * kKiB, CachePolicy::kFifo);
  std::vector<uint8_t> page(1 * kKiB, 0xCD);
  ASSERT_TRUE(cache.Insert(1, page.data()).ok());
  ASSERT_TRUE(cache.Insert(2, page.data()).ok());
  EXPECT_TRUE(cache.Lookup(1).valid());  // FIFO ignores recency
  ASSERT_TRUE(cache.Insert(3, page.data()).ok());
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
}

TEST(PageCacheTest, HitRateAccounting) {
  gpu::Device device(0, 10 * kKiB);
  PageCache cache(&device, 4 * kKiB, 1 * kKiB, CachePolicy::kLru);
  std::vector<uint8_t> page(1 * kKiB, 0x11);
  EXPECT_FALSE(cache.Lookup(7).valid());
  ASSERT_TRUE(cache.Insert(7, page.data()).ok());
  EXPECT_TRUE(cache.Lookup(7).valid());
  EXPECT_EQ(cache.lookups(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(PageCacheTest, LookupIntoCountsLookupsAndHits) {
  gpu::Device device(0, 10 * kKiB);
  PageCache cache(&device, 4 * kKiB, 1 * kKiB, CachePolicy::kLru);
  std::vector<uint8_t> page(1 * kKiB, 0x77);
  std::vector<uint8_t> dst(1 * kKiB);
  EXPECT_FALSE(cache.LookupInto(4, dst.data()));  // miss counts a lookup
  ASSERT_TRUE(cache.Insert(4, page.data()).ok());
  EXPECT_TRUE(cache.LookupInto(4, dst.data()));
  EXPECT_EQ(dst, page);
  EXPECT_EQ(cache.lookups(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  // The copy path takes no lease: nothing is pinned afterwards.
  EXPECT_EQ(cache.pinned(), 0u);
}

TEST(PageCacheTest, CachedBytesMatchInserted) {
  gpu::Device device(0, 10 * kKiB);
  PageCache cache(&device, 4 * kKiB, 1 * kKiB, CachePolicy::kLru);
  std::vector<uint8_t> page(1 * kKiB);
  for (size_t i = 0; i < page.size(); ++i) page[i] = static_cast<uint8_t>(i * 3);
  ASSERT_TRUE(cache.Insert(9, page.data()).ok());
  PageCache::Pin pin = cache.Lookup(9);
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.page_id(), 9u);
  EXPECT_EQ(std::memcmp(pin.data(), page.data(), page.size()), 0);
}

TEST(PageCacheTest, EvictionSkipsPinnedVictim) {
  gpu::Device device(0, 10 * kKiB);
  // FIFO so Lookup does not reorder: page 1 stays the natural victim even
  // while we hold a Pin on it.
  PageCache cache(&device, 2 * kKiB, 1 * kKiB, CachePolicy::kFifo);
  std::vector<uint8_t> page(1 * kKiB, 0x5F);
  ASSERT_TRUE(cache.Insert(1, page.data()).ok());
  ASSERT_TRUE(cache.Insert(2, page.data()).ok());

  PageCache::Pin pin1 = cache.Lookup(1);
  ASSERT_TRUE(pin1.valid());
  EXPECT_EQ(cache.pinned(), 1u);
  ASSERT_TRUE(cache.Insert(3, page.data()).ok());
  EXPECT_TRUE(cache.Contains(1));   // pinned victim skipped
  EXPECT_FALSE(cache.Contains(2));  // next-oldest unpinned page evicted
  EXPECT_TRUE(cache.Contains(3));

  pin1.Release();
  EXPECT_EQ(cache.pinned(), 0u);
  ASSERT_TRUE(cache.Insert(4, page.data()).ok());  // 1 now evictable again
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
}

TEST(PageCacheTest, InsertReportsBackpressureWhenAllPagesPinned) {
  gpu::Device device(0, 10 * kKiB);
  PageCache cache(&device, 2 * kKiB, 1 * kKiB, CachePolicy::kLru);
  std::vector<uint8_t> page(1 * kKiB, 0x21);
  ASSERT_TRUE(cache.Insert(1, page.data()).ok());
  ASSERT_TRUE(cache.Insert(2, page.data()).ok());
  {
    PageCache::Pin pin1 = cache.Lookup(1);
    PageCache::Pin pin2 = cache.Lookup(2);
    ASSERT_TRUE(pin1.valid());
    ASSERT_TRUE(pin2.valid());
    const Status full = cache.Insert(3, page.data());
    EXPECT_TRUE(full.IsCapacityExceeded()) << full.ToString();
    EXPECT_EQ(cache.insert_backpressure(), 1u);
    EXPECT_FALSE(cache.Contains(3));
    EXPECT_TRUE(cache.Contains(1));
    EXPECT_TRUE(cache.Contains(2));
  }
  // Pins released by scope exit: the same insert now evicts and succeeds.
  ASSERT_TRUE(cache.Insert(3, page.data()).ok());
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.insert_backpressure(), 1u);  // unchanged
}

TEST(PageCacheTest, PinIsMovable) {
  gpu::Device device(0, 10 * kKiB);
  PageCache cache(&device, 2 * kKiB, 1 * kKiB, CachePolicy::kLru);
  std::vector<uint8_t> page(1 * kKiB, 0x9C);
  ASSERT_TRUE(cache.Insert(1, page.data()).ok());
  PageCache::Pin a = cache.Lookup(1);
  ASSERT_TRUE(a.valid());
  PageCache::Pin b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): post-move probe
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(cache.pinned(), 1u);  // moving transfers, not duplicates
  a = std::move(b);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(cache.pinned(), 1u);
  a.Release();
  a.Release();  // idempotent
  EXPECT_EQ(cache.pinned(), 0u);
}

TEST(PageCacheTest, UsesDeviceMemoryAccounting) {
  gpu::Device device(0, 3 * kKiB);
  PageCache cache(&device, 3 * kKiB, 1 * kKiB, CachePolicy::kLru);
  std::vector<uint8_t> page(1 * kKiB, 0x00);
  ASSERT_TRUE(cache.Insert(0, page.data()).ok());
  ASSERT_TRUE(cache.Insert(1, page.data()).ok());
  EXPECT_EQ(device.used(), 2 * kKiB);
  // Eviction releases device memory again.
  ASSERT_TRUE(cache.Insert(2, page.data()).ok());
  ASSERT_TRUE(cache.Insert(3, page.data()).ok());
  EXPECT_EQ(device.used(), 3 * kKiB);
}

TEST(PageCacheTest, PinnedPolicyKeepsResidentSetUnderScan) {
  gpu::Device device(0, 10 * kKiB);
  PageCache cache(&device, 2 * kKiB, 1 * kKiB, CachePolicy::kPinned);
  std::vector<uint8_t> page(1 * kKiB, 0x42);
  // Cyclic sweep over 4 pages, twice.
  for (int round = 0; round < 2; ++round) {
    for (PageId pid = 0; pid < 4; ++pid) {
      if (!cache.Lookup(pid).valid()) {
        ASSERT_TRUE(cache.Insert(pid, page.data()).ok());
      }
    }
  }
  // Pinned: pages 0 and 1 stay resident -> 2 hits in round two.
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(3));

  // Classic LRU on the same sweep: zero hits (everything evicted just
  // before reuse) -- the pathological pattern the pinned policy avoids.
  PageCache lru(&device, 2 * kKiB, 1 * kKiB, CachePolicy::kLru);
  for (int round = 0; round < 2; ++round) {
    for (PageId pid = 0; pid < 4; ++pid) {
      if (!lru.Lookup(pid).valid()) {
        ASSERT_TRUE(lru.Insert(pid, page.data()).ok());
      }
    }
  }
  EXPECT_EQ(lru.hits(), 0u);
}

TEST(PageCacheTest, ZeroCapacityCacheIsInert) {
  gpu::Device device(0, 10 * kKiB);
  PageCache cache(&device, 0, 1 * kKiB, CachePolicy::kLru);
  std::vector<uint8_t> page(1 * kKiB, 0x5A);
  ASSERT_TRUE(cache.Insert(1, page.data()).ok());
  EXPECT_FALSE(cache.Lookup(1).valid());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PageCacheTest, PinnedPolicyFullInsertIsScanResistantNotBackpressure) {
  gpu::Device device(0, 10 * kKiB);
  PageCache cache(&device, 2 * kKiB, 1 * kKiB, CachePolicy::kPinned);
  std::vector<uint8_t> page(1 * kKiB, 0x30);
  ASSERT_TRUE(cache.Insert(1, page.data()).ok());
  ASSERT_TRUE(cache.Insert(2, page.data()).ok());
  // Policy-full early return: OK status (a deliberate keep-the-resident-set
  // decision, Insert's scan-resistance early-return), not CapacityExceeded
  // backpressure -- that is reserved for eviction blocked by Pins.
  ASSERT_TRUE(cache.Insert(3, page.data()).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Contains(3));
  EXPECT_EQ(cache.insert_backpressure(), 0u);
}

// ------------------------------- staging primitives (io-engine hooks)

TEST(StagingTest, StageFromDeviceCountsReadWithoutHit) {
  PagedGraph paged = SmallPagedGraph();
  auto store = MakeSsdStore(&paged, 1, /*buffer_capacity=*/64 * kMiB);

  EXPECT_FALSE(store->Resident(0));
  ASSERT_TRUE(store->StageFromDevice(0).ok());
  EXPECT_TRUE(store->Resident(0));
  EXPECT_EQ(store->stats().device_reads, 1u);
  EXPECT_EQ(store->stats().bytes_read, paged.config().page_size);
  EXPECT_EQ(store->stats().buffer_hits, 0u);

  // Staging an already-resident page is a caller bug.
  EXPECT_FALSE(store->StageFromDevice(0).ok());

  // A fetch after staging is a plain buffer hit: no second device read.
  auto hit = store->Fetch(0);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->buffer_hit);
  EXPECT_EQ(store->stats().device_reads, 1u);
  EXPECT_EQ(store->stats().buffer_hits, 1u);
}

TEST(StagingTest, TouchResidentRefreshesLruWithoutCounting) {
  PagedGraph paged = SmallPagedGraph();
  ASSERT_GE(paged.num_pages(), 3u);
  // MMBuf holds exactly two pages.
  auto store =
      MakeSsdStore(&paged, 1, /*buffer_capacity=*/2 * paged.config().page_size);
  ASSERT_TRUE(store->StageFromDevice(0).ok());
  ASSERT_TRUE(store->StageFromDevice(1).ok());

  EXPECT_EQ(store->TouchResident(2), nullptr);  // not resident
  // Touch 0 so it becomes most recent; staging 2 then evicts 1, not 0.
  EXPECT_NE(store->TouchResident(0), nullptr);
  ASSERT_TRUE(store->StageFromDevice(2).ok());
  EXPECT_TRUE(store->Resident(0));
  EXPECT_FALSE(store->Resident(1));
  // Touches bump no hit counter (the io engine counts its completions).
  EXPECT_EQ(store->stats().buffer_hits, 0u);
}

TEST(StagingTest, FetchMissPaysFullReadCost) {
  PagedGraph paged = SmallPagedGraph();
  auto store = MakeSsdStore(&paged, 1, /*buffer_capacity=*/64 * kMiB);
  const uint64_t page_size = paged.config().page_size;
  auto miss = store->Fetch(3);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->buffer_hit);
  EXPECT_DOUBLE_EQ(miss->io_cost,
                   store->device(0).timing().ReadCost(page_size));
}

}  // namespace
}  // namespace gts
