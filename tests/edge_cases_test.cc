// Boundary conditions: degenerate graphs and misuse of the storage layer
// must behave predictably.
#include <gtest/gtest.h>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/wcc.h"
#include "core/engine.h"
#include "graph/csr_graph.h"
#include "storage/page_builder.h"
#include "storage/page_store.h"

namespace gts {
namespace {

MachineConfig SmallMachine() {
  MachineConfig m = MachineConfig::PaperScaled(1);
  m.device_memory = 8 * kMiB;
  return m;
}

struct Built {
  CsrGraph csr;
  PagedGraph paged;
  std::unique_ptr<PageStore> store;
};

Built Build(EdgeList edges) {
  Built b;
  b.csr = CsrGraph::FromEdgeList(edges);
  b.paged =
      std::move(BuildPagedGraph(b.csr, PageConfig{2, 2, 1 * kKiB})).ValueOrDie();
  b.store = MakeInMemoryStore(&b.paged);
  return b;
}

TEST(EdgeCasesTest, SingleVertexNoEdges) {
  Built b = Build(EdgeList(1, {}));
  EXPECT_EQ(b.paged.num_pages(), 1u);
  GtsEngine engine(&b.paged, b.store.get(), SmallMachine(), GtsOptions{});

  auto bfs = RunBfsGts(engine, 0);
  ASSERT_TRUE(bfs.ok());
  EXPECT_EQ(bfs->levels[0], 0);
  EXPECT_EQ(bfs->report.metrics.levels, 1);

  auto pr = RunPageRankGts(engine, {.iterations = 2});
  ASSERT_TRUE(pr.ok());
  // No edges: only the base term survives.
  EXPECT_NEAR(pr->ranks[0], 0.15f, 1e-6);
}

TEST(EdgeCasesTest, AllVerticesIsolated) {
  Built b = Build(EdgeList(500, {}));
  GtsEngine engine(&b.paged, b.store.get(), SmallMachine(), GtsOptions{});
  auto bfs = RunBfsGts(engine, 42);
  ASSERT_TRUE(bfs.ok());
  for (VertexId v = 0; v < 500; ++v) {
    EXPECT_EQ(bfs->levels[v], v == 42 ? 0 : BfsKernel::kUnvisited);
  }
  auto wcc = RunWccGts(engine);
  ASSERT_TRUE(wcc.ok());
  for (VertexId v = 0; v < 500; ++v) EXPECT_EQ(wcc->labels[v], v);
}

TEST(EdgeCasesTest, SelfLoopsOnly) {
  EdgeList edges(3, {{0, 0}, {1, 1}, {2, 2}});
  Built b = Build(edges);
  GtsEngine engine(&b.paged, b.store.get(), SmallMachine(), GtsOptions{});
  auto bfs = RunBfsGts(engine, 1);
  ASSERT_TRUE(bfs.ok());
  EXPECT_EQ(bfs->levels[1], 0);
  EXPECT_EQ(bfs->levels[0], BfsKernel::kUnvisited);
  auto pr = RunPageRankGts(engine, {.iterations = 3});
  ASSERT_TRUE(pr.ok());  // each vertex feeds rank to itself
  EXPECT_NEAR(pr->ranks[0], 1.0f / 3.0f, 1e-4);
}

TEST(EdgeCasesTest, TwoVertexCycle) {
  EdgeList edges(2, {{0, 1}, {1, 0}});
  Built b = Build(edges);
  GtsEngine engine(&b.paged, b.store.get(), SmallMachine(), GtsOptions{});
  auto bfs = RunBfsGts(engine, 0);
  ASSERT_TRUE(bfs.ok());
  EXPECT_EQ(bfs->levels[0], 0);
  EXPECT_EQ(bfs->levels[1], 1);
  EXPECT_EQ(bfs->report.metrics.levels, 2);
  auto pr = RunPageRankGts(engine, {.iterations = 10});
  ASSERT_TRUE(pr.ok());
  EXPECT_NEAR(pr->ranks[0], 0.5f, 1e-4);
  EXPECT_NEAR(pr->ranks[1], 0.5f, 1e-4);
}

TEST(EdgeCasesTest, EmptyGraphBuilds) {
  CsrGraph csr = CsrGraph::FromEdgeList(EdgeList(0, {}));
  auto built = BuildPagedGraph(csr, PageConfig::Small22());
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->num_pages(), 0u);
  EXPECT_EQ(built->TotalTopologyBytes(), 0u);
}

TEST(EdgeCasesTest, FetchBeforeInitFailsCleanly) {
  EdgeList edges(4, {{0, 1}});
  CsrGraph csr = CsrGraph::FromEdgeList(edges);
  PagedGraph paged =
      std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
  std::vector<std::unique_ptr<StorageDevice>> devices;
  devices.push_back(std::make_unique<MemoryDevice>());
  PageStore store(&paged, std::move(devices), kMiB);
  EXPECT_EQ(store.Fetch(0).status().code(), StatusCode::kFailedPrecondition);
}

TEST(EdgeCasesTest, StarGraphHubAsLpRun) {
  // One hub pointing at 5000 leaves: the hub spans many LP chunks, every
  // leaf is reached at level 1 through the expanded chunk run.
  EdgeList edges;
  edges.set_num_vertices(5001);
  for (VertexId v = 1; v <= 5000; ++v) edges.Add(0, v);
  Built b = Build(std::move(edges));
  ASSERT_GT(b.paged.num_large_pages(), 10u);
  MachineConfig machine = MachineConfig::PaperScaled(1);
  machine.device_memory = 16 * kMiB;
  GtsEngine engine(&b.paged, b.store.get(), machine, GtsOptions{});
  auto bfs = RunBfsGts(engine, 0);
  ASSERT_TRUE(bfs.ok());
  for (VertexId v = 1; v <= 5000; ++v) {
    ASSERT_EQ(bfs->levels[v], 1) << v;
  }
  EXPECT_EQ(bfs->report.metrics.levels, 2);
}

// ------------------------- Strategy-S WaRange boundaries (Section 4.2)

TEST(EdgeCasesTest, StrategySWithMoreGpusThanVertices) {
  // 4 vertices across 8 GPUs: the ceil-divided WA chunk gives the first
  // GPUs one vertex each and the rest empty [n, n) ranges. The scan must
  // still visit every page on every GPU and merge to the right answer.
  EdgeList edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  Built b = Build(edges);
  MachineConfig machine = MachineConfig::PaperScaled(8);
  machine.device_memory = 8 * kMiB;
  GtsOptions opts;
  opts.strategy = Strategy::kScalability;
  GtsEngine engine(&b.paged, b.store.get(), machine, opts);
  auto pr = RunPageRankGts(engine, {.iterations = 10});
  ASSERT_TRUE(pr.ok());
  // Symmetric ring: uniform stationary distribution.
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_NEAR(pr->ranks[v], 0.25f, 1e-4) << v;
  }
}

TEST(EdgeCasesTest, TraversalReplicatesWaUnderStrategyS) {
  // Traversal kernels always replicate WA (they read arbitrary neighbors'
  // levels), so Strategy-S BFS must agree with Strategy-P exactly even
  // when the scan-time WA chunks would partition the vertices.
  EdgeList edges;
  edges.set_num_vertices(64);
  for (VertexId v = 0; v + 1 < 64; ++v) edges.Add(v, v + 1);
  Built b = Build(std::move(edges));
  MachineConfig machine = MachineConfig::PaperScaled(2);
  machine.device_memory = 8 * kMiB;

  GtsOptions perf;  // Strategy-P default
  GtsEngine ep(&b.paged, b.store.get(), machine, perf);
  auto bp = RunBfsGts(ep, 0);
  ASSERT_TRUE(bp.ok());

  GtsOptions scal;
  scal.strategy = Strategy::kScalability;
  GtsEngine es(&b.paged, b.store.get(), machine, scal);
  auto bs = RunBfsGts(es, 0);
  ASSERT_TRUE(bs.ok());

  EXPECT_EQ(bp->levels, bs->levels);
  // The replicated stream really streams every page to both GPUs.
  EXPECT_EQ(bs->report.metrics.pages_streamed,
            2 * bp->report.metrics.pages_streamed);
}

// ---------------------------------------------- RunPass page-list misuse

TEST(EdgeCasesTest, RunPassRejectsOutOfRangePageIds) {
  EdgeList edges(16, {{0, 1}, {1, 2}});
  Built b = Build(edges);
  GtsEngine engine(&b.paged, b.store.get(), SmallMachine(), GtsOptions{});
  PageRankKernel kernel(b.paged.num_vertices());
  auto result =
      engine.RunPass(&kernel, {0, static_cast<PageId>(b.paged.num_pages())});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EdgeCasesTest, RunPassProcessesDuplicatePageIdsTwice) {
  // RunPass takes the caller's list literally: a duplicate runs its
  // kernel again, on the copy staged for the first occurrence (backward
  // sweeps rely on exact caller-controlled page sets, so the engine must
  // not dedupe kernel work behind their back).
  EdgeList edges(16, {{0, 1}, {1, 2}});
  Built b = Build(edges);
  GtsEngine engine(&b.paged, b.store.get(), SmallMachine(), GtsOptions{});
  PageRankKernel kernel(b.paged.num_vertices());
  kernel.BeginIteration();
  auto once = engine.RunPass(&kernel, {0});
  ASSERT_TRUE(once.ok());
  kernel.BeginIteration();
  auto twice = engine.RunPass(&kernel, {0, 0});
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(once->sp_kernel_calls + once->lp_kernel_calls, 1u);
  EXPECT_EQ(twice->sp_kernel_calls + twice->lp_kernel_calls, 2u);
}

}  // namespace
}  // namespace gts
