// The unified Run*Gts result/parameter shape: RunMetrics::Accumulate,
// RunReport, JobOptions-based driver signatures (and their deprecated
// positional aliases), and GtsOptions::Validate.
#include <gtest/gtest.h>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/radius.h"
#include "algorithms/rwr.h"
#include "algorithms/wcc.h"
#include "core/engine.h"
#include "core/run_report.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "storage/page_builder.h"
#include "storage/page_store.h"

namespace gts {
namespace {

// ------------------------------------------------- RunMetrics::Accumulate

RunMetrics MakeIncrement() {
  RunMetrics m;
  m.sim_seconds = 0.5;
  m.levels = 3;
  m.pages_streamed = 10;
  m.cpu_pages = 2;
  m.sp_kernel_calls = 7;
  m.lp_kernel_calls = 1;
  m.cache_lookups = 20;
  m.cache_hits = 15;
  m.cache_backpressure = 4;
  m.work.scanned_slots = 100;
  m.work.edges_processed = 400;
  m.work.wa_updates = 50;
  m.io.buffer_hits = 6;
  m.io.device_reads = 3;
  m.io.bytes_read = 3 * 4096;
  m.level_pages = {{1, 2}, {3}};
  m.transfer_busy = 0.1;
  m.kernel_busy = 0.2;
  m.storage_busy = 0.05;
  m.ingest_updates_applied = 9;
  m.ingest_deltas_flushed = 5;
  m.ingest_compactions = 2;
  m.ingest_overlay_hits = 3;
  return m;
}

TEST(RunMetricsAccumulateTest, SumsEveryAdditiveCounter) {
  RunMetrics total = MakeIncrement();
  total.Accumulate(MakeIncrement());

  EXPECT_DOUBLE_EQ(total.sim_seconds, 1.0);
  EXPECT_EQ(total.levels, 6);
  EXPECT_EQ(total.pages_streamed, 20u);
  EXPECT_EQ(total.cpu_pages, 4u);
  EXPECT_EQ(total.sp_kernel_calls, 14u);
  EXPECT_EQ(total.lp_kernel_calls, 2u);
  EXPECT_EQ(total.cache_lookups, 40u);
  EXPECT_EQ(total.cache_hits, 30u);
  // The counter the old per-driver `+=` blocks dropped.
  EXPECT_EQ(total.cache_backpressure, 8u);
  EXPECT_EQ(total.work.scanned_slots, 200u);
  EXPECT_EQ(total.work.edges_processed, 800u);
  EXPECT_EQ(total.work.wa_updates, 100u);
  EXPECT_EQ(total.io.buffer_hits, 12u);
  EXPECT_EQ(total.io.device_reads, 6u);
  EXPECT_EQ(total.io.bytes_read, uint64_t{6} * 4096);
  EXPECT_DOUBLE_EQ(total.transfer_busy, 0.2);
  EXPECT_DOUBLE_EQ(total.kernel_busy, 0.4);
  EXPECT_DOUBLE_EQ(total.storage_busy, 0.1);
  // Streaming-ingestion activity harvested at run boundaries.
  EXPECT_EQ(total.ingest_updates_applied, 18u);
  EXPECT_EQ(total.ingest_deltas_flushed, 10u);
  EXPECT_EQ(total.ingest_compactions, 4u);
  EXPECT_EQ(total.ingest_overlay_hits, 6u);
  // level_pages appends: the accumulated run keeps its frontier history.
  ASSERT_EQ(total.level_pages.size(), 4u);
  EXPECT_EQ(total.level_pages[2], (std::vector<PageId>{1, 2}));
}

TEST(RunMetricsAccumulateTest, KeepsLatestNonEmptyTimeline) {
  RunMetrics total;
  RunMetrics with_ops;
  gpu::TimelineOp op;
  op.kind = gpu::OpKind::kKernel;
  with_ops.timeline.ops.push_back(op);

  total.Accumulate(with_ops);
  ASSERT_EQ(total.timeline.ops.size(), 1u);

  // An increment without a timeline must not wipe the kept one.
  total.Accumulate(RunMetrics{});
  EXPECT_EQ(total.timeline.ops.size(), 1u);
}

TEST(RunReportTest, AccumulateForwardsToMetrics) {
  RunReport report;
  report.Accumulate(MakeIncrement());
  report.Accumulate(MakeIncrement());
  EXPECT_EQ(report.metrics.cache_backpressure, 8u);
  EXPECT_EQ(report.metrics.levels, 6);
}

// ----------------------------------------------- drivers over JobOptions

struct Fixture {
  EdgeList edges;
  CsrGraph csr;
  PagedGraph paged;
  std::unique_ptr<PageStore> store;

  Fixture() {
    RmatParams p;
    p.scale = 9;
    p.edge_factor = 8;
    p.seed = 3;
    edges = std::move(GenerateRmat(p)).ValueOrDie();
    csr = CsrGraph::FromEdgeList(edges);
    paged = std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
    store = MakeInMemoryStore(&paged);
  }

  MachineConfig Machine() const {
    MachineConfig m = MachineConfig::PaperScaled(1);
    m.device_memory = 32 * kMiB;
    return m;
  }
};

TEST(JobOptionsTest, PageRankDesignatedInitializersMatchFieldForm) {
  Fixture f;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), GtsOptions{});

  JobOptions options;
  options.iterations = 3;
  options.damping = 0.9f;
  auto via_fields = RunPageRankGts(engine, options);
  ASSERT_TRUE(via_fields.ok());

  auto via_designated =
      RunPageRankGts(engine, {.iterations = 3, .damping = 0.9f});
  ASSERT_TRUE(via_designated.ok());

  ASSERT_EQ(via_fields->ranks.size(), via_designated->ranks.size());
  for (size_t v = 0; v < via_fields->ranks.size(); ++v) {
    EXPECT_DOUBLE_EQ(via_fields->ranks[v], via_designated->ranks[v]);
  }
  EXPECT_EQ(via_fields->iterations.size(), 3u);
  EXPECT_EQ(via_fields->report.metrics.levels,
            via_designated->report.metrics.levels);
}

TEST(JobOptionsTest, WccMaxIterationsComesFromOptions) {
  Fixture f;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), GtsOptions{});

  // An absurdly low bound must truncate label propagation: the option is
  // actually honored, not silently defaulted.
  auto truncated = RunWccGts(engine, {.max_iterations = 1});
  ASSERT_TRUE(truncated.ok());
  EXPECT_EQ(truncated->iterations, 1);

  auto converged = RunWccGts(engine, {.max_iterations = 50});
  ASSERT_TRUE(converged.ok());
  EXPECT_GT(converged->iterations, 1);
  EXPECT_LE(converged->iterations, 50);
}

TEST(JobOptionsTest, RadiusSeedComesFromOptions) {
  Fixture f;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), GtsOptions{});

  auto a = RunRadiusGts(engine, {.max_hops = 32, .seed = 123});
  ASSERT_TRUE(a.ok());
  auto b = RunRadiusGts(engine, {.max_hops = 32, .seed = 123});
  ASSERT_TRUE(b.ok());
  // Same seed: the FM sketches and thus the estimate are reproducible.
  EXPECT_EQ(a->effective_diameter, b->effective_diameter);
  EXPECT_EQ(a->hops, b->hops);
  EXPECT_EQ(a->neighborhood_function, b->neighborhood_function);
}

TEST(JobOptionsTest, ReportCarriesRegistrySnapshot) {
  Fixture f;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), GtsOptions{});
  auto bfs = RunBfsGts(engine, 0);
  ASSERT_TRUE(bfs.ok());
  // RunJob snapshots the engine registry into the report: engine-level
  // aggregates and component counters are both present.
  EXPECT_TRUE(bfs->report.snapshot.count("engine.runs"));
  EXPECT_TRUE(bfs->report.snapshot.count("cache.gpu0.lookups"));
  EXPECT_TRUE(bfs->report.snapshot.count("store.buffer_hits"));
  EXPECT_EQ(bfs->report.snapshot.at("engine.runs").count, 1u);
}

TEST(JobOptionsTest, RegistryAccumulatesAcrossRuns) {
  Fixture f;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), GtsOptions{});
  auto first = RunBfsGts(engine, 0);
  ASSERT_TRUE(first.ok());
  auto second = RunBfsGts(engine, 0);
  ASSERT_TRUE(second.ok());
  // The registry is cumulative across an engine's lifetime (the per-run
  // view lives in RunMetrics).
  EXPECT_EQ(second->report.snapshot.at("engine.runs").count, 2u);
  EXPECT_GT(second->report.snapshot.at("engine.pages_streamed").count,
            first->report.metrics.pages_streamed);
}

// ------------------------------------------------- GtsOptions::Validate

TEST(ValidateTest, DefaultOptionsAreValid) {
  const MachineConfig machine = MachineConfig::PaperScaled(2);
  EXPECT_TRUE(GtsOptions{}.Validate(machine).ok());
}

TEST(ValidateTest, RejectsBadStreamCounts) {
  const MachineConfig machine = MachineConfig::PaperScaled(1);
  GtsOptions opts;
  opts.num_streams = 0;
  EXPECT_EQ(opts.Validate(machine).code(), StatusCode::kInvalidArgument);
  opts.num_streams = GtsOptions::kMaxStreamsPerGpu + 1;
  EXPECT_EQ(opts.Validate(machine).code(), StatusCode::kInvalidArgument);
  opts.num_streams = GtsOptions::kMaxStreamsPerGpu;
  EXPECT_TRUE(opts.Validate(machine).ok());
}

TEST(ValidateTest, RejectsBadLevelAndAssistBounds) {
  const MachineConfig machine = MachineConfig::PaperScaled(1);
  GtsOptions opts;
  opts.max_levels = 0;
  EXPECT_EQ(opts.Validate(machine).code(), StatusCode::kInvalidArgument);
  opts = GtsOptions{};
  opts.cpu_assist_fraction = 1.0;
  EXPECT_EQ(opts.Validate(machine).code(), StatusCode::kInvalidArgument);
  opts.cpu_assist_fraction = -0.1;
  EXPECT_EQ(opts.Validate(machine).code(), StatusCode::kInvalidArgument);
  opts.cpu_assist_fraction = 0.5;
  EXPECT_TRUE(opts.Validate(machine).ok());
}

TEST(ValidateTest, RejectsCacheLargerThanDeviceMemory) {
  MachineConfig machine = MachineConfig::PaperScaled(1);
  GtsOptions opts;
  opts.cache_bytes = machine.device_memory + 1;
  EXPECT_EQ(opts.Validate(machine).code(), StatusCode::kInvalidArgument);
  opts.cache_bytes = GtsOptions::kAutoCacheBytes;  // auto always fits
  EXPECT_TRUE(opts.Validate(machine).ok());
}

TEST(ValidateTest, RejectsPartitionKindsIncompatibleWithStrategy) {
  const MachineConfig multi = MachineConfig::PaperScaled(2);
  const MachineConfig single = MachineConfig::PaperScaled(1);

  // Strategy-S partitions WA: a partitioned page stream would drop the
  // updates owned by the other GPUs.
  GtsOptions opts;
  opts.strategy = Strategy::kScalability;
  opts.dispatch.partition = GpuPartitionKind::kRoundRobin;
  EXPECT_EQ(opts.Validate(multi).code(), StatusCode::kInvalidArgument);
  opts.dispatch.partition = GpuPartitionKind::kDegreeBalanced;
  EXPECT_EQ(opts.Validate(multi).code(), StatusCode::kInvalidArgument);
  opts.dispatch.partition = GpuPartitionKind::kReplicate;
  EXPECT_TRUE(opts.Validate(multi).ok());

  // Strategy-P replicates WA: a replicated stream double-counts updates.
  opts = GtsOptions{};
  opts.dispatch.partition = GpuPartitionKind::kReplicate;
  EXPECT_EQ(opts.Validate(multi).code(), StatusCode::kInvalidArgument);
  opts.dispatch.partition = GpuPartitionKind::kDegreeBalanced;
  EXPECT_TRUE(opts.Validate(multi).ok());

  // One GPU: every kind degrades to striping and any combination is fine.
  for (auto partition :
       {GpuPartitionKind::kStrategyDefault, GpuPartitionKind::kRoundRobin,
        GpuPartitionKind::kReplicate, GpuPartitionKind::kDegreeBalanced}) {
    for (auto strategy : {Strategy::kPerformance, Strategy::kScalability}) {
      GtsOptions any;
      any.strategy = strategy;
      any.dispatch.partition = partition;
      EXPECT_TRUE(any.Validate(single).ok());
    }
  }
}

TEST(ValidateTest, EngineConstructionChecksValidate) {
  Fixture f;
  GtsOptions opts;
  opts.num_streams = 0;
  EXPECT_DEATH(GtsEngine(&f.paged, f.store.get(), f.Machine(), opts),
               "num_streams");
}

}  // namespace
}  // namespace gts
