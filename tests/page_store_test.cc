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

/// Fetches `pids` in order and returns how many were MMBuf hits.
uint64_t HitsOver(PageStore& store, const std::vector<PageId>& pids) {
  const uint64_t before = store.stats().buffer_hits;
  for (PageId pid : pids) EXPECT_TRUE(store.Fetch(pid).ok()) << pid;
  return store.stats().buffer_hits - before;
}

/// An MMBuf of eight 4 KiB pages: a ring of max(1, 8 / 4) = 2 slots
/// turns over, and the first 8 - 2 = 6 pages admitted stay resident.
constexpr uint64_t kEightPages = 8 * 4 * kKiB;

TEST(PageStoreTest, EvictsLruWhenOverCapacity) {
  PagedGraph graph = SmallPagedGraph();
  ASSERT_EQ(graph.config().page_size, 4 * kKiB);
  ASSERT_GE(graph.num_pages(), 10u);
  auto store = MakeSsdStore(&graph, 1, kEightPages);
  ASSERT_TRUE(store->Evicts());
  for (PageId pid = 0; pid < 8; ++pid) ASSERT_TRUE(store->Fetch(pid).ok());
  // A hit on the oldest ring page does not save it: the ring is FIFO.
  auto hit = store->Fetch(6);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->buffer_hit);
  ASSERT_TRUE(store->Fetch(8).ok());  // evicts page 6
  EXPECT_FALSE(store->Resident(6));
  EXPECT_TRUE(store->Resident(7));
  EXPECT_TRUE(store->Resident(8));
  ASSERT_TRUE(store->Fetch(9).ok());  // evicts page 7
  EXPECT_FALSE(store->Resident(7));
  auto again = store->Fetch(6);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->buffer_hit);
  // The pinned pages never left.
  for (PageId pid = 0; pid < 6; ++pid) {
    auto pinned = store->Fetch(pid);
    ASSERT_TRUE(pinned.ok());
    EXPECT_TRUE(pinned->buffer_hit) << "page " << pid;
  }
}

/// A cyclic sweep over more pages than MMBuf holds (by at least the
/// ring) hits exactly the pinned pages on every sweep after the first;
/// LRU would evict each page just before its next use and hit nothing.
TEST(PageStoreTest, CyclicSweepHitsThePinnedPages) {
  PagedGraph graph = SmallPagedGraph();
  ASSERT_GE(graph.num_pages(), 12u);
  auto store = MakeSsdStore(&graph, 2, kEightPages);
  std::vector<PageId> sweep(12);
  for (PageId pid = 0; pid < sweep.size(); ++pid) sweep[pid] = pid;
  EXPECT_EQ(HitsOver(*store, sweep), 0u);
  EXPECT_EQ(HitsOver(*store, sweep), 6u);
  EXPECT_EQ(HitsOver(*store, sweep), 6u);
  EXPECT_EQ(store->stats().device_reads, 12u + 6u + 6u);
}

/// Rewriting a pinned page frees its slot, and the next page admitted is
/// pinned in its place: it outlives any number of ring turnovers.
TEST(PageStoreTest, RewriteOfAPinnedPageFreesItsPin) {
  PagedGraph graph = SmallPagedGraph();
  ASSERT_GE(graph.num_pages(), 12u);
  auto store = MakeSsdStore(&graph, 1, kEightPages);
  for (PageId pid = 0; pid < 8; ++pid) ASSERT_TRUE(store->Fetch(pid).ok());
  const uint64_t page_size = graph.config().page_size;
  ASSERT_TRUE(store->RewritePage(2, graph.page_bytes(2).data(), page_size).ok());
  EXPECT_FALSE(store->Resident(2));
  ASSERT_TRUE(store->Fetch(8).ok());  // takes page 2's pin; nothing evicted
  for (PageId pid = 0; pid < 8; ++pid) {
    EXPECT_EQ(store->Resident(pid), pid != 2) << "page " << pid;
  }
  // Four more misses turn the two-slot ring over twice.
  for (PageId pid : {9u, 10u, 11u, 2u}) ASSERT_TRUE(store->Fetch(pid).ok());
  EXPECT_TRUE(store->Resident(8));
  for (PageId pid : {0u, 1u, 3u, 4u, 5u}) EXPECT_TRUE(store->Resident(pid));
  EXPECT_FALSE(store->Resident(9));
  auto hit = store->Fetch(8);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->buffer_hit);
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

TEST(PageCacheTest, HitRateAccounting) {
  gpu::Device device(0, 10 * kKiB);
  PageCache cache(&device, 4 * kKiB, 1 * kKiB);
  std::vector<uint8_t> page(1 * kKiB, 0x11);
  EXPECT_FALSE(cache.Lookup(7).valid());
  ASSERT_TRUE(cache.Insert(7, page.data()).ok());
  EXPECT_TRUE(cache.Lookup(7).valid());
  EXPECT_EQ(cache.lookups(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(PageCacheTest, CachedBytesMatchInserted) {
  gpu::Device device(0, 10 * kKiB);
  PageCache cache(&device, 4 * kKiB, 1 * kKiB);
  std::vector<uint8_t> page(1 * kKiB);
  for (size_t i = 0; i < page.size(); ++i) page[i] = static_cast<uint8_t>(i * 3);
  ASSERT_TRUE(cache.Insert(9, page.data()).ok());
  PageCache::Pin pin = cache.Lookup(9);
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.page_id(), 9u);
  EXPECT_EQ(std::memcmp(pin.data(), page.data(), page.size()), 0);
  pin.Release();

  // Page 13 takes over the buffer page 9's invalidation freed: it must
  // hold its own bytes.
  EXPECT_TRUE(cache.Invalidate(9));
  std::fill(page.begin(), page.end(), static_cast<uint8_t>(13));
  ASSERT_TRUE(cache.Insert(13, page.data()).ok());
  pin = cache.Lookup(13);
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(std::memcmp(pin.data(), page.data(), page.size()), 0);
}

TEST(PageCacheTest, PinIsMovable) {
  gpu::Device device(0, 10 * kKiB);
  PageCache cache(&device, 2 * kKiB, 1 * kKiB);
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
  PageCache cache(&device, 3 * kKiB, 1 * kKiB);
  std::vector<uint8_t> page(1 * kKiB, 0x00);
  ASSERT_TRUE(cache.Insert(0, page.data()).ok());
  ASSERT_TRUE(cache.Insert(1, page.data()).ok());
  EXPECT_EQ(device.used(), 2 * kKiB);
  // Invalidation returns the page's device memory.
  EXPECT_TRUE(cache.Invalidate(0));
  EXPECT_EQ(device.used(), 1 * kKiB);
  // A full cache reserves nothing more.
  ASSERT_TRUE(cache.Insert(2, page.data()).ok());
  ASSERT_TRUE(cache.Insert(3, page.data()).ok());
  ASSERT_TRUE(cache.Insert(4, page.data()).ok());
  EXPECT_EQ(device.used(), 3 * kKiB);
  EXPECT_FALSE(cache.Contains(4));
}

TEST(PageCacheTest, PinnedPolicyKeepsResidentSetUnderScan) {
  gpu::Device device(0, 10 * kKiB);
  PageCache cache(&device, 2 * kKiB, 1 * kKiB);
  std::vector<uint8_t> page(1 * kKiB, 0x42);
  // Cyclic sweep over 4 pages, twice.
  for (int round = 0; round < 2; ++round) {
    for (PageId pid = 0; pid < 4; ++pid) {
      if (!cache.Lookup(pid).valid()) {
        ASSERT_TRUE(cache.Insert(pid, page.data()).ok());
      }
    }
  }
  // Pages 0 and 1 stay resident -> 2 hits in round two (a recency-
  // evicting LRU cache would score 0 on this sweep).
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(3));
}

TEST(PageCacheTest, ZeroCapacityCacheIsInert) {
  gpu::Device device(0, 10 * kKiB);
  PageCache cache(&device, 0, 1 * kKiB);
  std::vector<uint8_t> page(1 * kKiB, 0x5A);
  ASSERT_TRUE(cache.Insert(1, page.data()).ok());
  EXPECT_FALSE(cache.Lookup(1).valid());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PageCacheTest, PinnedPolicyFullInsertIsScanResistantNotBackpressure) {
  gpu::Device device(0, 10 * kKiB);
  PageCache cache(&device, 2 * kKiB, 1 * kKiB);
  std::vector<uint8_t> page(1 * kKiB, 0x30);
  ASSERT_TRUE(cache.Insert(1, page.data()).ok());
  ASSERT_TRUE(cache.Insert(2, page.data()).ok());
  // Full: an OK no-op that keeps the resident set (scan resistance), not
  // an error, even with every resident page pinned.
  PageCache::Pin pin = cache.Lookup(1);
  ASSERT_TRUE(cache.Insert(3, page.data()).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
}

// ------------------------------------ staging primitives (Fetch miss path)

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
