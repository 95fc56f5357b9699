// Failure injection: storage errors must surface as clean Status values
// through every layer (PageStore -> engine -> algorithm driver), never as
// crashes or silent corruption.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/reference.h"
#include "core/engine.h"
#include "core/job/job_scheduler.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "storage/page_builder.h"
#include "storage/page_store.h"

namespace gts {
namespace {

/// A device whose reads [fail_after, fail_after + fail_count) fail; the
/// reads before and after that window succeed.
class FlakyDevice final : public StorageDevice {
 public:
  FlakyDevice(int fail_after, DeviceTimingParams timing,
              int fail_count = INT_MAX)
      : StorageDevice("flaky", timing),
        fail_after_(fail_after),
        fail_count_(fail_count) {}

  Status Write(uint64_t offset, const uint8_t* data, uint64_t len) override {
    return backing_.Write(offset, data, len);
  }

  Status Read(uint64_t offset, uint8_t* dst, uint64_t len) override {
    const int read = reads_++;
    if (read >= fail_after_ && read - fail_after_ < fail_count_) {
      return Status::IOError("flaky device: uncorrectable read error");
    }
    return backing_.Read(offset, dst, len);
  }

  int reads() const { return reads_; }

 private:
  MemoryDevice backing_;
  int fail_after_;
  int fail_count_;
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

  std::unique_ptr<PageStore> FlakyStore(int fail_after,
                                        int fail_count = INT_MAX) {
    // Writes (Init) do not count; only reads trip the failure.
    std::vector<std::unique_ptr<StorageDevice>> devices;
    devices.push_back(std::make_unique<FlakyDevice>(
        fail_after, DeviceTimingParams::PcieSsd().Scaled(1024.0),
        fail_count));
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

/// The engine whose run failed serves the next runs itself: a BFS (four
/// in one epoch for the multi-job config) runs into a transient read
/// error, then on the same engine two BFS rounds and a 2-iteration
/// PageRank match the references.
TEST(FaultInjectionTest, FailedEngineServesLaterRuns) {
  struct Config {
    std::string name;
    int gpus;
    GtsOptions opts;
    int jobs;
  };
  std::vector<Config> configs;
  configs.push_back({"1gpu", 1, GtsOptions{}, 1});
  {
    GtsOptions opts;
    opts.strategy = Strategy::kPerformance;
    configs.push_back({"2gpu-p", 2, opts, 1});
    opts.strategy = Strategy::kScalability;
    configs.push_back({"2gpu-s", 2, opts, 1});
  }
  {
    GtsOptions opts;
    opts.cpu_assist_fraction = 0.3;
    configs.push_back({"cpu0.3", 1, opts, 1});
  }
  {
    GtsOptions opts;
    opts.max_concurrent_jobs = 4;
    configs.push_back({"4jobs", 1, opts, 4});
  }

  Fixture f;
  const VertexId n = f.csr.num_vertices();
  // The busiest sources, so no job finishes before the failing read.
  std::vector<VertexId> sources(n);
  for (VertexId v = 0; v < n; ++v) sources[v] = v;
  std::partial_sort(sources.begin(), sources.begin() + 4, sources.end(),
                    [&](VertexId a, VertexId b) {
                      return f.csr.out_degree(a) > f.csr.out_degree(b);
                    });
  sources.resize(4);

  for (const Config& config : configs) {
    SCOPED_TRACE(config.name);
    // Read 2 fails, in the first BFS; every later read succeeds.
    auto store = f.FlakyStore(/*fail_after=*/2, /*fail_count=*/1);
    MachineConfig machine = MachineConfig::PaperScaled(config.gpus);
    machine.device_memory = 32 * kMiB;
    GtsEngine engine(&f.paged, store.get(), machine, config.opts);

    // Submits config.jobs BFS jobs before the first Wait, so a
    // multi-job config serves them in one epoch.
    auto bfs_round = [&](bool expect_failure) {
      std::vector<std::unique_ptr<BfsKernel>> kernels;
      std::vector<JobHandle> handles;
      for (int j = 0; j < config.jobs; ++j) {
        kernels.push_back(std::make_unique<BfsKernel>(n, sources[j]));
        handles.push_back(engine.scheduler().Submit(
            kernels.back().get(), {.source = sources[j]}));
      }
      for (int j = 0; j < config.jobs; ++j) {
        const Result<RunReport> report = handles[j].Wait();
        if (expect_failure) {
          EXPECT_EQ(report.status().code(), StatusCode::kIOError)
              << "job " << j;
          continue;
        }
        ASSERT_TRUE(report.ok()) << "job " << j << ": " << report.status();
        const auto expected = ReferenceBfs(f.csr, sources[j]);
        for (VertexId v = 0; v < n; ++v) {
          const uint16_t want = expected[v] == kUnreachedLevel
                                    ? BfsKernel::kUnvisited
                                    : static_cast<uint16_t>(expected[v]);
          ASSERT_EQ(kernels[j]->levels()[v], want)
              << "job " << j << " vertex " << v;
        }
      }
    };
    bfs_round(/*expect_failure=*/true);
    bfs_round(/*expect_failure=*/false);
    bfs_round(/*expect_failure=*/false);

    auto pr = RunPageRankGts(engine, {.iterations = 2});
    ASSERT_TRUE(pr.ok()) << pr.status();
    const auto expected = ReferencePageRank(f.csr, 2);
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_NEAR(pr->ranks[v], expected[v], 2e-4 * (1.0 + expected[v]))
          << "vertex " << v;
    }
  }
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
