// Failure injection: storage errors must surface as clean Status values
// through every layer (PageStore -> engine -> algorithm driver), never as
// crashes or silent corruption.
#include <gtest/gtest.h>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/reference.h"
#include "core/engine.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "storage/page_builder.h"
#include "storage/page_store.h"

namespace gts {
namespace {

/// A device that fails reads after `fail_after` successful ones.
class FlakyDevice final : public StorageDevice {
 public:
  FlakyDevice(int fail_after, DeviceTimingParams timing)
      : StorageDevice("flaky", timing), fail_after_(fail_after) {}

  Status Write(uint64_t offset, const uint8_t* data, uint64_t len) override {
    return backing_.Write(offset, data, len);
  }

  Status Read(uint64_t offset, uint8_t* dst, uint64_t len) override {
    if (reads_++ >= fail_after_) {
      return Status::IOError("flaky device: uncorrectable read error");
    }
    return backing_.Read(offset, dst, len);
  }

  int reads() const { return reads_; }

 private:
  MemoryDevice backing_;
  int fail_after_;
  int reads_ = 0;
};

struct Fixture {
  EdgeList edges;
  CsrGraph csr;
  PagedGraph paged;

  Fixture() {
    RmatParams p;
    p.scale = 10;
    p.edge_factor = 8;
    p.seed = 9;
    edges = std::move(GenerateRmat(p)).ValueOrDie();
    csr = CsrGraph::FromEdgeList(edges);
    paged = std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
  }

  std::unique_ptr<PageStore> FlakyStore(int fail_after) {
    // Writes (Init) do not count; only reads trip the failure.
    std::vector<std::unique_ptr<StorageDevice>> devices;
    devices.push_back(std::make_unique<FlakyDevice>(
        fail_after, DeviceTimingParams::PcieSsd().Scaled(1024.0)));
    auto store = std::make_unique<PageStore>(
        &paged, std::move(devices), /*buffer_capacity=*/64 * kKiB);
    GTS_CHECK_OK(store->Init());
    return store;
  }
};

TEST(FaultInjectionTest, PageStoreSurfacesReadError) {
  Fixture f;
  auto store = f.FlakyStore(3);
  // First three pages fetch fine...
  EXPECT_TRUE(store->Fetch(0).ok());
  EXPECT_TRUE(store->Fetch(1).ok());
  EXPECT_TRUE(store->Fetch(2).ok());
  // ...then the device dies.
  auto failed = store->Fetch(3);
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
}

/// A read that fails on a full MMBuf leaves it as it was: the same pages
/// stay resident and nothing is counted.
TEST(FaultInjectionTest, FailedReadLeavesMmbufAsItWas) {
  Fixture f;
  ASSERT_GE(f.paged.num_pages(), 11u);
  std::vector<std::unique_ptr<StorageDevice>> devices;
  devices.push_back(std::make_unique<FlakyDevice>(
      10, DeviceTimingParams::PcieSsd().Scaled(1024.0)));
  // Eight pages: six pinned, a ring of two.
  PageStore store(&f.paged, std::move(devices),
                  8 * f.paged.config().page_size);
  GTS_CHECK_OK(store.Init());
  for (PageId pid = 0; pid < 10; ++pid) ASSERT_TRUE(store.Fetch(pid).ok());
  std::vector<bool> resident;
  for (PageId pid = 0; pid < f.paged.num_pages(); ++pid) {
    resident.push_back(store.Resident(pid));
  }
  EXPECT_EQ(store.Fetch(10).status().code(), StatusCode::kIOError);
  for (PageId pid = 0; pid < f.paged.num_pages(); ++pid) {
    EXPECT_EQ(store.Resident(pid), resident[pid]) << "page " << pid;
  }
  EXPECT_EQ(store.stats().device_reads, 10u);
  EXPECT_EQ(store.stats().buffer_hits, 0u);
}

TEST(FaultInjectionTest, EngineRunPropagatesIoErrorFromPageRank) {
  Fixture f;
  auto store = f.FlakyStore(5);
  MachineConfig machine = MachineConfig::PaperScaled(1);
  machine.device_memory = 32 * kMiB;
  GtsEngine engine(&f.paged, store.get(), machine, GtsOptions{});
  auto result = RunPageRankGts(engine, {.iterations = 2});
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(FaultInjectionTest, EngineRunPropagatesIoErrorFromTraversal) {
  Fixture f;
  auto store = f.FlakyStore(2);
  MachineConfig machine = MachineConfig::PaperScaled(1);
  machine.device_memory = 32 * kMiB;
  GtsEngine engine(&f.paged, store.get(), machine, GtsOptions{});
  VertexId source = 0;
  for (VertexId v = 0; v < f.csr.num_vertices(); ++v) {
    if (f.csr.out_degree(v) > f.csr.out_degree(source)) source = v;
  }
  auto result = RunBfsGts(engine, source);
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(FaultInjectionTest, EngineIsReusableAfterAFailedRun) {
  Fixture f;
  auto flaky = f.FlakyStore(1);
  auto good = MakeInMemoryStore(&f.paged);
  MachineConfig machine = MachineConfig::PaperScaled(1);
  machine.device_memory = 32 * kMiB;
  {
    GtsEngine engine(&f.paged, flaky.get(), machine, GtsOptions{});
    ASSERT_FALSE(RunPageRankGts(engine, {.iterations = 1}).ok());
  }
  // Buffers were released on the failure path; a fresh run on a healthy
  // store succeeds.
  GtsEngine engine(&f.paged, good.get(), machine, GtsOptions{});
  EXPECT_TRUE(RunPageRankGts(engine, {.iterations = 1}).ok());
}

// ------------------------------------------------- k-hop neighborhood

TEST(NeighborhoodTest, MatchesTruncatedReferenceBfs) {
  Fixture f;
  auto store = MakeInMemoryStore(&f.paged);
  MachineConfig machine = MachineConfig::PaperScaled(1);
  machine.device_memory = 32 * kMiB;
  GtsEngine engine(&f.paged, store.get(), machine, GtsOptions{});
  VertexId source = 0;
  for (VertexId v = 0; v < f.csr.num_vertices(); ++v) {
    if (f.csr.out_degree(v) > f.csr.out_degree(source)) source = v;
  }
  const auto full = ReferenceBfs(f.csr, source);
  for (uint32_t hops : {0u, 1u, 2u, 3u}) {
    auto result = RunNeighborhoodGts(engine, source, {.hops = hops});
    ASSERT_TRUE(result.ok()) << result.status();
    std::vector<VertexId> expected;
    for (VertexId v = 0; v < full.size(); ++v) {
      if (full[v] != kUnreachedLevel && full[v] <= hops) {
        expected.push_back(v);
      }
    }
    EXPECT_EQ(result->members, expected) << "hops " << hops;
  }
}

TEST(NeighborhoodTest, GrowsMonotonically) {
  Fixture f;
  auto store = MakeInMemoryStore(&f.paged);
  MachineConfig machine = MachineConfig::PaperScaled(1);
  machine.device_memory = 32 * kMiB;
  GtsEngine engine(&f.paged, store.get(), machine, GtsOptions{});
  size_t prev = 0;
  for (uint32_t hops : {0u, 1u, 2u, 4u}) {
    auto result = RunNeighborhoodGts(engine, 5, {.hops = hops});
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->members.size(), prev);
    prev = result->members.size();
  }
}

}  // namespace
}  // namespace gts
