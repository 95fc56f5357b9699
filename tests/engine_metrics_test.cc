// Invariants of RunMetrics and the engine's accounting: the numbers the
// benchmarks print must be internally consistent.
#include <gtest/gtest.h>

#include <cstring>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "core/engine.h"
#include "core/job/job_scheduler.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "storage/page_builder.h"

namespace gts {
namespace {

struct Fixture {
  EdgeList edges;
  CsrGraph csr;
  PagedGraph paged;
  std::unique_ptr<PageStore> store;

  explicit Fixture(int scale = 10, double ef = 8, uint64_t seed = 5) {
    RmatParams p;
    p.scale = scale;
    p.edge_factor = ef;
    p.seed = seed;
    edges = std::move(GenerateRmat(p)).ValueOrDie();
    csr = CsrGraph::FromEdgeList(edges);
    paged = std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
    store = MakeInMemoryStore(&paged);
  }

  MachineConfig Machine(int gpus = 1) const {
    MachineConfig m = MachineConfig::PaperScaled(gpus);
    m.device_memory = 32 * kMiB;
    return m;
  }

  VertexId Source() const {
    VertexId best = 0;
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      if (csr.out_degree(v) > csr.out_degree(best)) best = v;
    }
    return best;
  }
};

TEST(EngineMetricsTest, FullScanTouchesEveryPageExactlyOnce) {
  Fixture f;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), GtsOptions{});
  auto pr = RunPageRankGts(engine, {.iterations = 1});
  ASSERT_TRUE(pr.ok());
  const RunMetrics& m = pr->report.metrics;
  EXPECT_EQ(m.pages_streamed, f.paged.num_pages());
  EXPECT_EQ(m.sp_kernel_calls, f.paged.num_small_pages());
  EXPECT_EQ(m.lp_kernel_calls, f.paged.num_large_pages());
  // A full scan processes every edge exactly once.
  EXPECT_EQ(m.work.edges_processed, f.csr.num_edges());
  // And scans every record (vertex) exactly once.
  EXPECT_GE(m.work.scanned_slots, f.csr.num_vertices());
}

TEST(EngineMetricsTest, PageRankUpdatesEqualOwnedEdges) {
  Fixture f;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), GtsOptions{});
  auto pr = RunPageRankGts(engine, {.iterations = 1});
  ASSERT_TRUE(pr.ok());
  // Single GPU owns all vertices: one atomicAdd per edge.
  EXPECT_EQ(pr->report.metrics.work.wa_updates, f.csr.num_edges());
}

TEST(EngineMetricsTest, BfsUpdatesEqualReachedVerticesMinusSource) {
  Fixture f;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), GtsOptions{});
  const VertexId source = f.Source();
  auto bfs = RunBfsGts(engine, source);
  ASSERT_TRUE(bfs.ok());
  uint64_t reached = 0;
  for (uint16_t level : bfs->levels) {
    reached += level != BfsKernel::kUnvisited;
  }
  // Every reached vertex except the source is claimed exactly once.
  EXPECT_EQ(bfs->report.metrics.work.wa_updates, reached - 1);
}

TEST(EngineMetricsTest, BusyTimesAreWithinMakespan) {
  Fixture f;
  GtsOptions opts;
  opts.num_streams = 4;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
  auto pr = RunPageRankGts(engine, {.iterations = 2});
  ASSERT_TRUE(pr.ok());
  for (const RunMetrics& m : pr->iterations) {
    // A serial resource cannot be busy longer than the whole run.
    EXPECT_LE(m.transfer_busy, m.sim_seconds * 1.0001);
    // Kernels overlap (up to 32): busy time may exceed makespan but not
    // by more than the concurrency bound.
    EXPECT_LE(m.kernel_busy, m.sim_seconds * 32.0);
    EXPECT_GT(m.sim_seconds, 0.0);
  }
}

TEST(EngineMetricsTest, TimelineOpsMatchCounters) {
  Fixture f;
  GtsOptions opts;
  opts.keep_timeline = true;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
  PageRankKernel kernel(f.csr.num_vertices());
  kernel.BeginIteration();
  auto report = engine.scheduler().Submit(&kernel).Wait();
  ASSERT_TRUE(report.ok());
  const RunMetrics& metrics = report->metrics;
  uint64_t kernel_ops = 0;
  uint64_t h2d_stream_ops = 0;
  for (const auto& op : metrics.timeline.ops) {
    if (op.kind == gpu::OpKind::kKernel) ++kernel_ops;
    if (op.kind == gpu::OpKind::kH2DStream) ++h2d_stream_ops;
  }
  EXPECT_EQ(kernel_ops, metrics.sp_kernel_calls + metrics.lp_kernel_calls);
  // PageRank streams SP plus RA per page: two stream transfers per page.
  EXPECT_EQ(h2d_stream_ops, 2 * metrics.pages_streamed);
}

TEST(EngineMetricsTest, SsdRunAccountsStorageBusy) {
  Fixture f;
  auto ssd = MakeSsdStore(&f.paged, 2, f.paged.TotalTopologyBytes() / 4);
  GtsEngine engine(&f.paged, ssd.get(), f.Machine(), GtsOptions{});
  auto pr = RunPageRankGts(engine, {.iterations = 1});
  ASSERT_TRUE(pr.ok());
  EXPECT_GT(pr->report.metrics.storage_busy, 0.0);
  EXPECT_GT(pr->report.metrics.io.device_reads, 0u);
  EXPECT_EQ(pr->report.metrics.io.device_reads * f.paged.config().page_size,
            pr->report.metrics.io.bytes_read);
}

TEST(EngineMetricsTest, SecondIterationServedFromMmbufWhenItFits) {
  Fixture f;
  auto ssd = MakeSsdStore(&f.paged, 1, f.paged.TotalTopologyBytes() + kMiB);
  GtsEngine engine(&f.paged, ssd.get(), f.Machine(), GtsOptions{});
  auto pr = RunPageRankGts(engine, {.iterations = 2});
  ASSERT_TRUE(pr.ok());
  ASSERT_EQ(pr->iterations.size(), 2u);
  EXPECT_GT(pr->iterations[0].io.device_reads, 0u);
  EXPECT_EQ(pr->iterations[1].io.device_reads, 0u);  // all MMBuf hits
  EXPECT_GT(pr->iterations[1].io.buffer_hits, 0u);
  EXPECT_LT(pr->iterations[1].sim_seconds, pr->iterations[0].sim_seconds);
}

TEST(EngineMetricsTest, RunPassProcessesExactlyGivenPages) {
  Fixture f;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), GtsOptions{});
  PageRankKernel kernel(f.csr.num_vertices());
  kernel.BeginIteration();
  std::vector<PageId> pages = {0, 2, 4};
  auto report = engine.scheduler().SubmitPass(&kernel, pages).Wait();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->metrics.pages_streamed, 3u);
  EXPECT_EQ(report->metrics.sp_kernel_calls + report->metrics.lp_kernel_calls,
            3u);

  EXPECT_EQ(engine.scheduler()
                .SubmitPass(&kernel,
                            {static_cast<PageId>(f.paged.num_pages() + 1)})
                .Wait()
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineMetricsTest, LevelsMatchReferenceEccentricity) {
  Fixture f;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), GtsOptions{});
  const VertexId source = f.Source();
  auto bfs = RunBfsGts(engine, source);
  ASSERT_TRUE(bfs.ok());
  uint16_t max_level = 0;
  for (uint16_t level : bfs->levels) {
    if (level != BfsKernel::kUnvisited) max_level = std::max(max_level, level);
  }
  // The level loop runs once per depth plus the final empty check.
  EXPECT_EQ(bfs->report.metrics.levels, max_level + 1);
}

TEST(EngineMetricsTest, StreamThreadsMatchInlineMetrics) {
  Fixture f;
  GtsOptions inline_opts;
  GtsOptions thread_opts;
  thread_opts.use_stream_threads = true;
  GtsEngine inline_engine(&f.paged, f.store.get(), f.Machine(), inline_opts);
  GtsEngine thread_engine(&f.paged, f.store.get(), f.Machine(), thread_opts);
  auto a = RunBfsGts(inline_engine, f.Source());
  auto b = RunBfsGts(thread_engine, f.Source());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->levels, b->levels);
  EXPECT_EQ(a->report.metrics.pages_streamed, b->report.metrics.pages_streamed);
  EXPECT_EQ(a->report.metrics.work.edges_processed, b->report.metrics.work.edges_processed);
  // Simulated time is computed from the same deterministic op log.
  EXPECT_DOUBLE_EQ(a->report.metrics.sim_seconds, b->report.metrics.sim_seconds);

  // PageRank at one stream per GPU: each GPU's stream worker runs that
  // GPU's kernels in the inline order, so its atomic float adds must give
  // the inline run's plain adds bit for bit.
  GtsOptions inline_pr_opts;
  inline_pr_opts.num_streams = 1;
  GtsOptions thread_pr_opts = inline_pr_opts;
  thread_pr_opts.use_stream_threads = true;
  GtsEngine inline_pr(&f.paged, f.store.get(), f.Machine(2), inline_pr_opts);
  GtsEngine thread_pr(&f.paged, f.store.get(), f.Machine(2), thread_pr_opts);
  JobOptions pr;
  pr.iterations = 10;
  auto c = RunPageRankGts(inline_pr, pr);
  auto d = RunPageRankGts(thread_pr, pr);
  ASSERT_TRUE(c.ok()) << c.status();
  ASSERT_TRUE(d.ok()) << d.status();
  ASSERT_EQ(c->ranks.size(), d->ranks.size());
  EXPECT_EQ(std::memcmp(c->ranks.data(), d->ranks.data(),
                        c->ranks.size() * sizeof(float)),
            0);
  EXPECT_DOUBLE_EQ(c->report.metrics.sim_seconds,
                   d->report.metrics.sim_seconds);
}

}  // namespace
}  // namespace gts
