// End-to-end tests of the GTS engine: every algorithm validated against an
// independent CPU reference across engine configurations.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "algorithms/bc.h"
#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/reference.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "storage/page_builder.h"

namespace gts {
namespace {

struct TestGraph {
  EdgeList edges;
  CsrGraph csr;
  PagedGraph paged;
  std::unique_ptr<PageStore> store;
};

TestGraph MakeTestGraph(int scale, double edge_factor,
                        PageConfig config = PageConfig::Small22(),
                        bool symmetric = false, uint64_t seed = 99) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = seed;
  TestGraph g;
  g.edges = std::move(GenerateRmat(p)).ValueOrDie();
  if (symmetric) g.edges = SymmetrizeEdges(g.edges);
  g.csr = CsrGraph::FromEdgeList(g.edges);
  g.paged = std::move(BuildPagedGraph(g.csr, config)).ValueOrDie();
  g.store = MakeInMemoryStore(&g.paged);
  return g;
}

MachineConfig TestMachine(int gpus = 1) {
  MachineConfig m = MachineConfig::PaperScaled(gpus);
  m.device_memory = 32 * kMiB;  // roomy for small test graphs
  return m;
}

/// A source with a large reachable set (R-MAT leaves many vertices with
/// out-degree zero, which would make traversal tests vacuous).
VertexId BusySource(const CsrGraph& csr) {
  VertexId best = 0;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    if (csr.out_degree(v) > csr.out_degree(best)) best = v;
  }
  return best;
}

void ExpectBfsMatchesReference(const TestGraph& g,
                               const std::vector<uint16_t>& got,
                               VertexId source) {
  const auto expected = ReferenceBfs(g.csr, source);
  for (VertexId v = 0; v < g.csr.num_vertices(); ++v) {
    const uint32_t want = expected[v] == kUnreachedLevel
                              ? BfsKernel::kUnvisited
                              : expected[v];
    ASSERT_EQ(got[v], want) << "vertex " << v;
  }
}

// ----------------------------------------------------------------- BFS

struct EngineParam {
  int num_streams;
  MicroStrategy micro;
  bool threads;
  // gtest names each instance after the param's bytes. Left as padding,
  // these two bytes were uninitialized and the names changed from run to
  // run; as a zeroed field they always print 00-00.
  uint16_t zero = 0;
};
static_assert(sizeof(EngineParam) == 8, "no padding left in EngineParam");

class BfsEngineTest : public ::testing::TestWithParam<EngineParam> {};

TEST_P(BfsEngineTest, MatchesReference) {
  TestGraph g = MakeTestGraph(11, 8);
  GtsOptions opts;
  opts.num_streams = GetParam().num_streams;
  opts.micro = GetParam().micro;
  opts.use_stream_threads = GetParam().threads;
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), opts);
  const VertexId source = BusySource(g.csr);
  auto result = RunBfsGts(engine, source);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBfsMatchesReference(g, result->levels, source);
  EXPECT_GT(result->report.metrics.sim_seconds, 0.0);
  EXPECT_GT(result->report.metrics.levels, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BfsEngineTest,
    ::testing::Values(EngineParam{1, MicroStrategy::kEdgeCentric, false},
                      EngineParam{4, MicroStrategy::kEdgeCentric, false},
                      EngineParam{32, MicroStrategy::kEdgeCentric, false},
                      EngineParam{16, MicroStrategy::kVertexCentric, false},
                      EngineParam{16, MicroStrategy::kHybrid, false},
                      EngineParam{8, MicroStrategy::kEdgeCentric, true},
                      EngineParam{16, MicroStrategy::kHybrid, true}));

TEST(BfsEngineTest, GraphWithLargePages) {
  // Tiny pages force several LP vertices.
  TestGraph g = MakeTestGraph(9, 16, PageConfig{2, 2, 512});
  ASSERT_GT(g.paged.num_large_pages(), 0u);
  GtsOptions opts;
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), opts);
  auto result = RunBfsGts(engine, 0);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBfsMatchesReference(g, result->levels, 0);
}

TEST(BfsEngineTest, MultiGpuStrategyPMatchesReference) {
  TestGraph g = MakeTestGraph(11, 8);
  GtsOptions opts;
  opts.strategy = Strategy::kPerformance;
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(2), opts);
  const VertexId source = BusySource(g.csr);
  auto result = RunBfsGts(engine, source);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBfsMatchesReference(g, result->levels, source);
}

TEST(BfsEngineTest, StrategySReplicatesWaAndMatchesReference) {
  // Section 4.2 under a traversal kernel: WA replicated, page stream
  // replicated; results identical, performance does not scale.
  TestGraph g = MakeTestGraph(10, 8);
  GtsOptions opts;
  opts.strategy = Strategy::kScalability;
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(2), opts);
  const VertexId source = BusySource(g.csr);
  auto result = RunBfsGts(engine, source);
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectBfsMatchesReference(g, result->levels, source);
  // Twice the pages stream (every page to both GPUs).
  GtsEngine p_engine(&g.paged, g.store.get(), TestMachine(2), GtsOptions{});
  auto p_result = RunBfsGts(p_engine, source);
  ASSERT_TRUE(p_result.ok());
  EXPECT_GT(result->report.metrics.pages_streamed,
            p_result->report.metrics.pages_streamed);
}

TEST(BfsEngineTest, InvalidSourceRejected) {
  TestGraph g = MakeTestGraph(9, 4);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), GtsOptions{});
  EXPECT_EQ(RunBfsGts(engine, g.csr.num_vertices() + 5).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BfsEngineTest, CacheProducesHitsAndFewerTransfers) {
  TestGraph g = MakeTestGraph(11, 8);
  GtsOptions with_cache;
  with_cache.enable_cache = true;
  GtsOptions no_cache;
  no_cache.enable_cache = false;
  GtsEngine e1(&g.paged, g.store.get(), TestMachine(), with_cache);
  GtsEngine e2(&g.paged, g.store.get(), TestMachine(), no_cache);
  const VertexId source = BusySource(g.csr);
  auto r1 = RunBfsGts(e1, source);
  auto r2 = RunBfsGts(e2, source);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(r1->report.metrics.cache_hits, 0u);
  EXPECT_LT(r1->report.metrics.pages_streamed, r2->report.metrics.pages_streamed);
  EXPECT_EQ(r2->report.metrics.cache_hits, 0u);
  // Same answers either way.
  EXPECT_EQ(r1->levels, r2->levels);
}

// ------------------------------------------------------------- PageRank

void ExpectRanksMatch(const TestGraph& g, const std::vector<float>& got,
                      int iterations, double tol = 2e-4) {
  const auto expected = ReferencePageRank(g.csr, iterations);
  ASSERT_EQ(got.size(), expected.size());
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_NEAR(got[v], expected[v], tol * (1.0 + expected[v]))
        << "vertex " << v;
  }
}

class PageRankEngineTest : public ::testing::TestWithParam<EngineParam> {};

TEST_P(PageRankEngineTest, MatchesReference) {
  TestGraph g = MakeTestGraph(10, 8);
  GtsOptions opts;
  opts.num_streams = GetParam().num_streams;
  opts.micro = GetParam().micro;
  opts.use_stream_threads = GetParam().threads;
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), opts);
  auto result = RunPageRankGts(engine, {.iterations = 5});
  ASSERT_TRUE(result.ok()) << result.status();
  ExpectRanksMatch(g, result->ranks, 5);
  EXPECT_EQ(result->iterations.size(), 5u);
  EXPECT_GT(result->report.metrics.sim_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PageRankEngineTest,
    ::testing::Values(EngineParam{1, MicroStrategy::kEdgeCentric, false},
                      EngineParam{16, MicroStrategy::kEdgeCentric, false},
                      EngineParam{16, MicroStrategy::kVertexCentric, false},
                      EngineParam{16, MicroStrategy::kHybrid, false},
                      EngineParam{8, MicroStrategy::kEdgeCentric, true}));

TEST(PageRankEngineTest, RanksSumToRoughlyOneMinusDanglingMass) {
  TestGraph g = MakeTestGraph(10, 8);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), GtsOptions{});
  auto result = RunPageRankGts(engine, {.iterations = 3});
  ASSERT_TRUE(result.ok());
  double total = 0.0;
  for (float r : result->ranks) total += r;
  EXPECT_GT(total, 0.2);
  EXPECT_LE(total, 1.0 + 1e-3);
}

TEST(PageRankEngineTest, StrategySMatchesStrategyP) {
  TestGraph g = MakeTestGraph(10, 8);
  GtsOptions p_opts;
  p_opts.strategy = Strategy::kPerformance;
  GtsOptions s_opts;
  s_opts.strategy = Strategy::kScalability;
  GtsEngine ep(&g.paged, g.store.get(), TestMachine(2), p_opts);
  GtsEngine es(&g.paged, g.store.get(), TestMachine(2), s_opts);
  auto rp = RunPageRankGts(ep, {.iterations = 4});
  auto rs = RunPageRankGts(es, {.iterations = 4});
  ASSERT_TRUE(rp.ok()) << rp.status();
  ASSERT_TRUE(rs.ok()) << rs.status();
  for (VertexId v = 0; v < rp->ranks.size(); ++v) {
    ASSERT_NEAR(rp->ranks[v], rs->ranks[v], 1e-5) << "vertex " << v;
  }
  ExpectRanksMatch(g, rs->ranks, 4);
}

TEST(PageRankEngineTest, GraphWithLargePagesUsesTotalDegree) {
  TestGraph g = MakeTestGraph(9, 16, PageConfig{2, 2, 512});
  ASSERT_GT(g.paged.num_large_pages(), 0u);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), GtsOptions{});
  auto result = RunPageRankGts(engine, {.iterations = 4});
  ASSERT_TRUE(result.ok());
  ExpectRanksMatch(g, result->ranks, 4);
}

TEST(PageRankEngineTest, WaTooLargeIsOutOfDeviceMemory) {
  TestGraph g = MakeTestGraph(12, 4);
  MachineConfig tiny = TestMachine(1);
  tiny.device_memory = 8 * kKiB;  // cannot hold 4 B x 4096 vertices
  GtsEngine engine(&g.paged, g.store.get(), tiny, GtsOptions{});
  auto result = RunPageRankGts(engine, {.iterations = 1});
  EXPECT_TRUE(result.status().IsOutOfDeviceMemory()) << result.status();
}

TEST(PageRankEngineTest, StrategySSplitsWaAcrossGpus) {
  // WA that fits in two GPUs but not one: the paper's RMAT32 situation.
  TestGraph g = MakeTestGraph(12, 4);  // 4096 vertices, 16 KiB WA
  MachineConfig machine = TestMachine(2);
  // One stream needs SPBuf+LPBuf (8 KiB) + RABuf; Strategy-S adds an
  // 8 KiB WA chunk (fits in 20 KiB), Strategy-P the full 16 KiB (does not).
  machine.device_memory = 20 * kKiB;
  GtsOptions p_opts;
  p_opts.strategy = Strategy::kPerformance;
  p_opts.num_streams = 1;
  GtsOptions s_opts;
  s_opts.strategy = Strategy::kScalability;
  s_opts.num_streams = 1;
  GtsEngine ep(&g.paged, g.store.get(), machine, p_opts);
  GtsEngine es(&g.paged, g.store.get(), machine, s_opts);
  EXPECT_TRUE(RunPageRankGts(ep, {.iterations = 1}).status().IsOutOfDeviceMemory());
  auto rs = RunPageRankGts(es, {.iterations = 2});
  ASSERT_TRUE(rs.ok()) << rs.status();
  ExpectRanksMatch(g, rs->ranks, 2);
}

// ----------------------------------------------------------------- SSSP

TEST(SsspEngineTest, MatchesDijkstra) {
  TestGraph g = MakeTestGraph(10, 8);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), GtsOptions{});
  const VertexId source = BusySource(g.csr);
  auto result = RunSsspGts(engine, source);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto expected = ReferenceSssp(g.csr, source);
  for (VertexId v = 0; v < expected.size(); ++v) {
    if (std::isinf(expected[v])) {
      ASSERT_TRUE(std::isinf(result->distances[v])) << "vertex " << v;
    } else {
      ASSERT_NEAR(result->distances[v], expected[v], 1e-3) << "vertex " << v;
    }
  }
}

TEST(SsspEngineTest, MatchesDijkstraWithLargePagesAndThreads) {
  TestGraph g = MakeTestGraph(9, 16, PageConfig{2, 2, 512});
  GtsOptions opts;
  opts.use_stream_threads = true;
  opts.num_streams = 4;
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), opts);
  const VertexId source = BusySource(g.csr);
  auto result = RunSsspGts(engine, source);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto expected = ReferenceSssp(g.csr, source);
  for (VertexId v = 0; v < expected.size(); ++v) {
    if (!std::isinf(expected[v])) {
      ASSERT_NEAR(result->distances[v], expected[v], 1e-3) << "vertex " << v;
    }
  }
}

// ------------------------------------------------------------------ WCC

TEST(WccEngineTest, MatchesUnionFind) {
  TestGraph g = MakeTestGraph(10, 2, PageConfig::Small22(),
                              /*symmetric=*/true);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), GtsOptions{});
  auto result = RunWccGts(engine);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto expected = ReferenceWcc(g.csr);
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(result->labels[v], expected[v]) << "vertex " << v;
  }
  EXPECT_GT(result->iterations, 1);
}

TEST(WccEngineTest, StrategySMatchesReference) {
  TestGraph g = MakeTestGraph(10, 2, PageConfig::Small22(),
                              /*symmetric=*/true);
  GtsOptions opts;
  opts.strategy = Strategy::kScalability;
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(2), opts);
  auto result = RunWccGts(engine);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto expected = ReferenceWcc(g.csr);
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_EQ(result->labels[v], expected[v]) << "vertex " << v;
  }
}

// ------------------------------------------------------------------- BC

TEST(BcEngineTest, MatchesBrandesFromSource) {
  TestGraph g = MakeTestGraph(9, 8);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), GtsOptions{});
  const VertexId source = BusySource(g.csr);
  auto result = RunBcGts(engine, source);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto expected = ReferenceBcFromSource(g.csr, source);
  for (VertexId v = 0; v < expected.size(); ++v) {
    ASSERT_NEAR(result->deltas[v], expected[v], 1e-2 * (1.0 + expected[v]))
        << "vertex " << v;
  }
}

TEST(BcEngineTest, RejectsMultiGpu) {
  TestGraph g = MakeTestGraph(9, 4);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(2), GtsOptions{});
  EXPECT_EQ(RunBcGts(engine, 0).status().code(), StatusCode::kUnimplemented);
}

// ------------------------------------------------------ timing behaviour

TEST(EngineTimingTest, MoreStreamsNeverSlowerForPageRank) {
  TestGraph g = MakeTestGraph(10, 16);
  auto run = [&](int streams) {
    GtsOptions opts;
    opts.num_streams = streams;
    GtsEngine engine(&g.paged, g.store.get(), TestMachine(), opts);
    return std::move(RunPageRankGts(engine, {.iterations = 2})).ValueOrDie().report.metrics.sim_seconds;
  };
  const double t1 = run(1);
  const double t8 = run(8);
  const double t32 = run(32);
  EXPECT_GT(t1, t8);
  EXPECT_GE(t8 * 1.05, t32);  // monotone within tolerance
}

TEST(EngineTimingTest, TwoGpusSpeedUpStrategyP) {
  TestGraph g = MakeTestGraph(11, 16);
  auto run = [&](int gpus) {
    GtsEngine engine(&g.paged, g.store.get(), TestMachine(gpus),
                     GtsOptions{});
    return std::move(RunPageRankGts(engine, {.iterations = 2})).ValueOrDie().report.metrics.sim_seconds;
  };
  const double t1 = run(1);
  const double t2 = run(2);
  EXPECT_LT(t2, 0.8 * t1);
}

TEST(EngineTimingTest, StrategySDoesNotSpeedUpCompute) {
  // Section 4.2: adding GPUs under Strategy-S scales capacity, not speed.
  TestGraph g = MakeTestGraph(11, 16);
  GtsOptions s_opts;
  s_opts.strategy = Strategy::kScalability;
  GtsEngine e1(&g.paged, g.store.get(), TestMachine(1), GtsOptions{});
  GtsEngine e2(&g.paged, g.store.get(), TestMachine(2), s_opts);
  const double t1 =
      std::move(RunPageRankGts(e1, {.iterations = 2})).ValueOrDie().report.metrics.sim_seconds;
  const double t2 =
      std::move(RunPageRankGts(e2, {.iterations = 2})).ValueOrDie().report.metrics.sim_seconds;
  EXPECT_GT(t2, 0.9 * t1);
}

TEST(EngineTimingTest, SsdStoreSlowerThanInMemory) {
  TestGraph g = MakeTestGraph(11, 16);
  auto mem_store = MakeInMemoryStore(&g.paged);
  auto ssd_store = MakeSsdStore(&g.paged, 1, /*buffer_capacity=*/
                                g.paged.TotalTopologyBytes() / 5);
  GtsEngine em(&g.paged, mem_store.get(), TestMachine(), GtsOptions{});
  GtsEngine es(&g.paged, ssd_store.get(), TestMachine(), GtsOptions{});
  const double tm =
      std::move(RunPageRankGts(em, {.iterations = 2})).ValueOrDie().report.metrics.sim_seconds;
  auto rs = std::move(RunPageRankGts(es, {.iterations = 2})).ValueOrDie();
  EXPECT_GT(rs.report.metrics.sim_seconds, tm);
  EXPECT_GT(rs.report.metrics.storage_busy, 0.0);
  EXPECT_GT(rs.report.metrics.io.device_reads, 0u);
}

TEST(EngineTimingTest, TimelineCapturedOnRequest) {
  TestGraph g = MakeTestGraph(9, 8);
  GtsOptions opts;
  opts.keep_timeline = true;
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), opts);
  PageRankKernel kernel(g.csr.num_vertices());
  kernel.BeginIteration();
  auto metrics = engine.Run(&kernel);
  ASSERT_TRUE(metrics.ok());
  EXPECT_FALSE(metrics->timeline.ops.empty());
  // Every kernel op should have a patched non-zero duration.
  for (const auto& op : metrics->timeline.ops) {
    if (op.kind == gpu::OpKind::kKernel) {
      EXPECT_GT(op.duration, 0.0);
    }
  }
}

}  // namespace
}  // namespace gts
