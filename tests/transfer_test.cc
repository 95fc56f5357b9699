// The gts::transfer seam (DESIGN.md section 14): PageStreamBackend
// reproduces the engine's classic schedules deterministically across the
// dispatch-policy matrix (the fig4 golden-trace cmp covers the
// byte-for-byte claim), DirectAccessBackend changes only the simulated
// PCI-E leg (results stay bit-identical on integer kernels), the kAuto
// crossover picks direct on sparse levels and streaming on dense ones,
// and the adaptive dispatch.min_active_edges sentinel stays exact on
// uniform levels.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algorithms/bfs.h"
#include "core/job/job_scheduler.h"
#include "algorithms/pagerank.h"
#include "algorithms/wcc.h"
#include "core/cost_model.h"
#include "core/engine.h"
#include "core/frontier.h"
#include "gpu/schedule.h"
#include "gpu/time_model.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "storage/page_builder.h"
#include "transfer/transfer_backend.h"
#include "transfer/transfer_options.h"

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

/// Field-by-field schedule equality (TimelineOp carries no operator==).
void ExpectSameTimeline(const gpu::ScheduleResult& got,
                        const gpu::ScheduleResult& want,
                        const std::string& what) {
  ASSERT_EQ(got.ops.size(), want.ops.size()) << what;
  for (size_t i = 0; i < want.ops.size(); ++i) {
    const gpu::TimelineOp& a = got.ops[i];
    const gpu::TimelineOp& b = want.ops[i];
    EXPECT_EQ(a.kind, b.kind) << what << " op " << i;
    EXPECT_EQ(a.stream_key, b.stream_key) << what << " op " << i;
    EXPECT_EQ(a.resource.type, b.resource.type) << what << " op " << i;
    EXPECT_EQ(a.resource.index, b.resource.index) << what << " op " << i;
    EXPECT_EQ(a.duration, b.duration) << what << " op " << i;
    EXPECT_EQ(a.dep0, b.dep0) << what << " op " << i;
    EXPECT_EQ(a.dep1, b.dep1) << what << " op " << i;
    EXPECT_EQ(a.bytes, b.bytes) << what << " op " << i;
    EXPECT_EQ(a.page, b.page) << what << " op " << i;
    EXPECT_EQ(a.job, b.job) << what << " op " << i;
    EXPECT_EQ(a.start, b.start) << what << " op " << i;
    EXPECT_EQ(a.end, b.end) << what << " op " << i;
  }
}

uint64_t CountOps(const gpu::ScheduleResult& timeline, gpu::OpKind kind) {
  uint64_t n = 0;
  for (const auto& op : timeline.ops) {
    if (op.kind == kind) ++n;
  }
  return n;
}

// ------------------------------------------------------ cost model units

TEST(TransferCostModelTest, DirectBytesChargeLineGranularity) {
  TimeModel tm;  // direct_line_bytes = 128
  TransferLevelStats s;
  s.sp_pages = 1;
  s.page_size = 4 * kKiB;
  s.entry_bytes = 4;

  // One sink vertex, no edges: its record still costs one line.
  s.active_vertices = 1;
  s.active_edges = 0;
  EXPECT_EQ(DirectTransferBytes(s, tm), 128u);

  // 32 entries x 4 B = exactly one extra line.
  s.active_edges = 32;
  EXPECT_EQ(DirectTransferBytes(s, tm), 256u);

  // Entry bytes round down to whole lines (the first line absorbs the
  // leading entries); 10 vertices contribute 10 record lines.
  s.active_vertices = 10;
  s.active_edges = 33;
  EXPECT_EQ(DirectTransferBytes(s, tm), (10 + 1) * 128u);
}

TEST(TransferCostModelTest, CrossoverPrefersDirectOnlyOnSparseLevels) {
  const TimeModel tm = TimeModel::PaperScaled();
  TransferLevelStats s;
  s.page_size = 4 * kKiB;
  s.entry_bytes = 4;

  // A lone activated vertex in one demanded page: a couple of cache
  // lines against a whole-page stream.
  s.sp_pages = 1;
  s.active_vertices = 1;
  s.active_edges = 8;
  EXPECT_TRUE(PreferDirectTransfer(s, tm));
  EXPECT_LT(DirectLevelSeconds(s, tm), PageStreamLevelSeconds(s, tm));

  // A saturated page (most slots active) moves more bytes line-by-line
  // than the page holds; streaming wins.
  s.active_vertices = 400;
  s.active_edges = 800;
  EXPECT_FALSE(PreferDirectTransfer(s, tm));
  EXPECT_GT(DirectLevelSeconds(s, tm), PageStreamLevelSeconds(s, tm));

  // No recorded activations (counting off / scan pass): never direct.
  s.active_vertices = 0;
  EXPECT_FALSE(PreferDirectTransfer(s, tm));

  // LP-only demand: nothing to fetch fine-grained.
  s = TransferLevelStats{};
  s.lp_pages = 3;
  s.active_vertices = 5;
  s.page_size = 4 * kKiB;
  EXPECT_FALSE(PreferDirectTransfer(s, tm));
}

TEST(TransferCostModelTest, ScalingDividesLatencyNotBandwidth) {
  const TimeModel paper = TimeModel{};
  const TimeModel scaled = TimeModel::PaperScaled(1024.0);
  EXPECT_EQ(scaled.direct_bandwidth, paper.direct_bandwidth);
  EXPECT_EQ(scaled.direct_line_bytes, paper.direct_line_bytes);
  EXPECT_EQ(scaled.direct_fetch_latency, paper.direct_fetch_latency / 1024.0);
}

// --------------------------------------------------- PidSet vertex counts

TEST(PidSetVertexCountTest, CountsActivationEventsBesideEdgeWeights) {
  PidSet set(8);
  set.EnableCounting();
  set.Set(3, 5);
  set.Set(3, 0);  // a sink vertex: no edges, but its record is fetched
  set.Set(6, 2);
  EXPECT_EQ(set.CountOf(3), 5u);
  EXPECT_EQ(set.VertexCountOf(3), 2u);
  EXPECT_EQ(set.CountOf(6), 2u);
  EXPECT_EQ(set.VertexCountOf(6), 1u);
  EXPECT_EQ(set.VertexCountOf(0), 0u);

  PidSet other(8);
  other.EnableCounting();
  other.Set(3, 7);
  set.Union(other);
  EXPECT_EQ(set.CountOf(3), 12u);
  EXPECT_EQ(set.VertexCountOf(3), 3u);

  set.Clear();
  EXPECT_EQ(set.CountOf(3), 0u);
  EXPECT_EQ(set.VertexCountOf(3), 0u);
}

// ------------------------------------------------------- backend factory

TEST(TransferBackendTest, FactoryBuildsModeMatchingBackends) {
  using transfer::TransferMode;
  for (auto mode : {TransferMode::kPageStream, TransferMode::kDirect,
                    TransferMode::kAuto}) {
    transfer::TransferOptions options;
    options.mode = mode;
    auto backend =
        transfer::MakeTransferBackend(options, transfer::TransferBackend::Env{});
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->mode(), mode);
    EXPECT_EQ(backend->name(), transfer::TransferModeName(mode));
    // Before any BeginPass the backend sits on the conservative default.
    EXPECT_EQ(backend->pass_mode(), TransferMode::kPageStream);
  }
}

// -------------------------------------- page-stream schedule reproduction

/// The extracted PageStreamBackend must leave the schedule a pure
/// function of the options on one and two GPUs -- same graph, same
/// knobs, fresh engine: identical op list (the golden-trace test pins
/// the same property against the checked-in fig4 bytes).
TEST(TransferBackendTest, PageStreamTimelineDeterministicAcrossEngines) {
  Fixture f;
  for (int gpus : {1, 2}) {
    GtsOptions opts;
    opts.keep_timeline = true;
    opts.num_streams = 4;
    const std::string what = "x" + std::to_string(gpus);

    gpu::ScheduleResult reference;
    for (int round = 0; round < 2; ++round) {
      GtsEngine engine(&f.paged, f.store.get(), f.Machine(gpus), opts);
      auto pr = RunPageRankGts(engine, {.iterations = 1});
      ASSERT_TRUE(pr.ok()) << what;
      EXPECT_EQ(CountOps(pr->report.metrics.timeline,
                         gpu::OpKind::kH2DDirect),
                0u)
          << what;
      EXPECT_EQ(pr->report.snapshot.at("transfer.pages").count,
                pr->report.metrics.pages_streamed)
          << what;
      if (round == 0) {
        reference = pr->report.metrics.timeline;
      } else {
        ExpectSameTimeline(pr->report.metrics.timeline, reference, what);
      }
    }
  }
}

/// Scan passes carry no frontier, so kDirect and kAuto must degrade to
/// the page-stream schedule byte for byte (and say so in the fallback
/// counter).
TEST(TransferBackendTest, DirectFallsBackToPageStreamOnScans) {
  Fixture f;
  gpu::ScheduleResult reference;
  uint64_t reference_bytes = 0;
  for (auto mode :
       {transfer::TransferMode::kPageStream, transfer::TransferMode::kDirect,
        transfer::TransferMode::kAuto}) {
    GtsOptions opts;
    opts.keep_timeline = true;
    opts.transfer.mode = mode;
    GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
    auto pr = RunPageRankGts(engine, {.iterations = 2});
    const std::string what(transfer::TransferModeName(mode));
    ASSERT_TRUE(pr.ok()) << what;
    const RunMetrics& m = pr->report.metrics;
    EXPECT_EQ(m.direct_pages, 0u) << what;
    EXPECT_EQ(m.direct_bytes, 0u) << what;
    if (mode == transfer::TransferMode::kPageStream) {
      reference = m.timeline;
      reference_bytes = m.transfer_bytes;
    } else {
      ExpectSameTimeline(m.timeline, reference, what);
      EXPECT_EQ(m.transfer_bytes, reference_bytes) << what;
      EXPECT_GT(pr->report.snapshot.at("transfer.fallback_passes").count, 0u)
          << what;
    }
  }
}

// -------------------------------------------------- result equivalence

/// The direct backend swaps only the simulated PCI-E leg; kernels still
/// execute against the whole staged page, so integer-kernel results are
/// bit-identical across every transfer mode, inline and on stream
/// threads.
TEST(TransferEquivalenceTest, BfsLevelsIdenticalAcrossModes) {
  Fixture f;
  const VertexId source = f.Source();
  for (int gpus : {1, 2}) {
    std::vector<uint16_t> reference;
    for (auto mode :
         {transfer::TransferMode::kPageStream, transfer::TransferMode::kDirect,
          transfer::TransferMode::kAuto}) {
      for (bool threads : {false, true}) {
        GtsOptions opts;
        opts.num_streams = 4;
        opts.use_stream_threads = threads;
        opts.transfer.mode = mode;
        GtsEngine engine(&f.paged, f.store.get(), f.Machine(gpus), opts);
        auto bfs = RunBfsGts(engine, source);
        const std::string what =
            std::string(transfer::TransferModeName(mode)) +
            (threads ? " threads" : " inline") + " x" + std::to_string(gpus);
        ASSERT_TRUE(bfs.ok()) << what << ": " << bfs.status().ToString();
        EXPECT_EQ(bfs->report.metrics.analysis.violations_detected, 0u)
            << what << ": " << bfs->report.metrics.analysis.ToString();
        if (reference.empty()) {
          reference = bfs->levels;
        } else {
          EXPECT_EQ(bfs->levels, reference) << what;
        }
      }
    }
  }
}

TEST(TransferEquivalenceTest, WccLabelsIdenticalAcrossModes) {
  Fixture f;
  std::vector<uint64_t> reference;
  for (auto mode :
       {transfer::TransferMode::kPageStream, transfer::TransferMode::kDirect,
        transfer::TransferMode::kAuto}) {
    GtsOptions opts;
    opts.transfer.mode = mode;
    GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
    auto wcc = RunWccGts(engine);
    ASSERT_TRUE(wcc.ok()) << transfer::TransferModeName(mode);
    if (reference.empty()) {
      reference = wcc->labels;
    } else {
      EXPECT_EQ(wcc->labels, reference) << transfer::TransferModeName(mode);
    }
  }
}

/// Concurrent jobs share the merged topology stream whatever the
/// backend: both jobs still compute the page-stream answer, and the
/// batch path keeps first-demander attribution intact.
TEST(TransferEquivalenceTest, MultiJobResultsIdenticalAcrossModes) {
  Fixture f(11, 8, 99);
  const VertexId source = f.Source();
  const VertexId n = f.csr.num_vertices();

  std::vector<uint16_t> reference;
  for (auto mode :
       {transfer::TransferMode::kPageStream, transfer::TransferMode::kDirect,
        transfer::TransferMode::kAuto}) {
    GtsOptions opts;
    opts.max_concurrent_jobs = 2;
    opts.use_stream_threads = false;  // deterministic inline push loop
    opts.transfer.mode = mode;
    GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
    BfsKernel ka(n, source);
    BfsKernel kb(n, source);
    JobOptions job;
    job.source = source;
    JobHandle ha = engine.scheduler().Submit(&ka, job);
    JobHandle hb = engine.scheduler().Submit(&kb, job);
    Result<RunReport> ra = ha.Wait();
    Result<RunReport> rb = hb.Wait();
    const std::string what(transfer::TransferModeName(mode));
    ASSERT_TRUE(ra.ok()) << what << ": " << ra.status();
    ASSERT_TRUE(rb.ok()) << what << ": " << rb.status();
    EXPECT_EQ(ka.levels(), kb.levels()) << what;
    EXPECT_GT(ra->metrics.shared_page_hits + rb->metrics.shared_page_hits, 0u)
        << what;
    if (reference.empty()) {
      reference = ka.levels();
    } else {
      EXPECT_EQ(ka.levels(), reference) << what;
    }
  }
}

// --------------------------------------------------- direct-mode effects

/// A one-level BFS from a single source demands one page holding a
/// handful of activations: the direct backend must move far fewer PCI-E
/// bytes than whole-page streaming, record kH2DDirect ops the validator
/// accepts, and publish the transfer.direct_* counters.
TEST(TransferEffectTest, DirectMovesFewerBytesOnSparseFrontier) {
  Fixture f;
  const VertexId source = f.Source();
  JobOptions one_level;
  one_level.max_levels_override = 1;

  uint64_t stream_bytes = 0;
  {
    GtsOptions opts;
    opts.keep_timeline = true;
    GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
    auto bfs = RunBfsGts(engine, source, one_level);
    ASSERT_TRUE(bfs.ok());
    stream_bytes = bfs->report.metrics.transfer_bytes;
    ASSERT_GT(stream_bytes, 0u);
  }

  GtsOptions opts;
  opts.keep_timeline = true;
  opts.transfer.mode = transfer::TransferMode::kDirect;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
  auto bfs = RunBfsGts(engine, source, one_level);
  ASSERT_TRUE(bfs.ok());
  const RunMetrics& m = bfs->report.metrics;
  EXPECT_GT(m.direct_pages, 0u);
  EXPECT_EQ(m.direct_pages, m.pages_streamed);
  EXPECT_EQ(m.direct_bytes, m.transfer_bytes);
  EXPECT_LT(m.transfer_bytes, stream_bytes);
  EXPECT_GT(CountOps(m.timeline, gpu::OpKind::kH2DDirect), 0u);
  EXPECT_EQ(CountOps(m.timeline, gpu::OpKind::kH2DStream), 0u);
  // The always-on validator audited the new op kind (R4 + serial copy
  // engine) without complaint.
  EXPECT_EQ(m.analysis.violations_detected, 0u) << m.analysis.ToString();
  const auto& snapshot = bfs->report.snapshot;
  EXPECT_EQ(snapshot.at("transfer.direct_pages").count, m.direct_pages);
  EXPECT_EQ(snapshot.at("transfer.direct_bytes").count, m.direct_bytes);
}

/// kAuto on a full RMAT BFS must land on both sides of the crossover:
/// the sparse first/last levels go direct, the dense middle levels
/// stream whole pages -- and the answer still matches page streaming.
TEST(TransferEffectTest, AutoPicksBothSidesOfCrossover) {
  Fixture f(11, 8, 7);
  const VertexId source = f.Source();

  std::vector<uint16_t> reference;
  {
    GtsEngine engine(&f.paged, f.store.get(), f.Machine(), GtsOptions{});
    auto bfs = RunBfsGts(engine, source);
    ASSERT_TRUE(bfs.ok());
    reference = bfs->levels;
  }

  GtsOptions opts;
  opts.transfer.mode = transfer::TransferMode::kAuto;
  // A small LRU cache keeps late sparse levels honest: under the default
  // pinned cache the whole graph is resident after the dense levels and
  // the direct levels would never reach Stage.
  opts.cache_policy = CachePolicy::kLru;
  opts.cache_bytes = 16 * kKiB;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
  auto bfs = RunBfsGts(engine, source);
  ASSERT_TRUE(bfs.ok());
  EXPECT_EQ(bfs->levels, reference);
  const auto& snapshot = bfs->report.snapshot;
  EXPECT_GT(snapshot.at("transfer.direct_levels").count, 0u)
      << "no level chose direct transfer";
  EXPECT_GT(snapshot.at("transfer.page_stream_levels").count, 0u)
      << "no level chose page streaming";
  EXPECT_GT(bfs->report.metrics.direct_pages, 0u);
  EXPECT_LT(bfs->report.metrics.direct_pages,
            bfs->report.metrics.pages_streamed);
}

// ------------------------------------- adaptive dispatch.min_active_edges

/// A binary out-tree traverses in uniform levels (every frontier page
/// near the mean, every interior vertex degree 2), so the adaptive cut
/// never lands between a page's count and the mean: results and the
/// skipped-page total match the exact threshold 1 run.
TEST(AdaptiveMinActiveEdgesTest, ExactOnUniformLevels) {
  EdgeList edges;
  const VertexId n = 1023;  // depth-10 complete binary tree
  edges.set_num_vertices(n);
  for (VertexId v = 0; 2 * v + 2 < n; ++v) {
    edges.Add(v, 2 * v + 1);
    edges.Add(v, 2 * v + 2);
  }
  CsrGraph csr = CsrGraph::FromEdgeList(edges);
  PagedGraph paged =
      std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
  auto store = MakeInMemoryStore(&paged);
  MachineConfig machine = MachineConfig::PaperScaled(1);
  machine.device_memory = 32 * kMiB;

  auto run_with = [&](uint32_t min_edges) {
    GtsOptions opts;
    opts.dispatch.min_active_edges = min_edges;
    GtsEngine engine(&paged, store.get(), machine, opts);
    auto bfs = RunBfsGts(engine, 0);
    GTS_CHECK(bfs.ok());
    return std::move(bfs).ValueOrDie();
  };

  const BfsGtsResult unfiltered = run_with(0);
  const BfsGtsResult exact = run_with(1);
  const BfsGtsResult adaptive =
      run_with(DispatchOptions::kAutoMinActiveEdges);
  EXPECT_EQ(adaptive.levels, unfiltered.levels);
  EXPECT_EQ(exact.levels, unfiltered.levels);
  // Degrees are 2 or 0, so any cut in (0, 2] skips exactly the
  // zero-expansion leaf pages the exact threshold skips.
  EXPECT_EQ(adaptive.report.metrics.pages_skipped,
            exact.report.metrics.pages_skipped);
  const auto& snapshot = adaptive.report.snapshot;
  ASSERT_TRUE(snapshot.count("dispatch.auto_min_active_edges"));
  const auto& dist = snapshot.at("dispatch.auto_min_active_edges");
  EXPECT_GT(dist.count, 0u);
  EXPECT_LE(dist.max, 2.0) << "near-uniform levels must keep a tight cut";
}

/// RMAT levels are skewed: the adaptive cut rises above 1 on dense
/// levels and sheds at least as many near-empty pages as the exact
/// threshold, while explicit values keep their exact semantics.
TEST(AdaptiveMinActiveEdgesTest, ShedsTailOnSkewedLevels) {
  Fixture f(11, 8, 7);
  const VertexId source = f.Source();

  auto run_with = [&](uint32_t min_edges) {
    GtsOptions opts;
    opts.dispatch.min_active_edges = min_edges;
    GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
    auto bfs = RunBfsGts(engine, source);
    GTS_CHECK(bfs.ok());
    return std::move(bfs).ValueOrDie();
  };

  const BfsGtsResult exact0 = run_with(0);
  const BfsGtsResult exact1 = run_with(1);
  // Explicit threshold 1 is exact: it drops only zero-expansion pages.
  EXPECT_EQ(exact1.levels, exact0.levels);

  const BfsGtsResult adaptive =
      run_with(DispatchOptions::kAutoMinActiveEdges);
  EXPECT_GE(adaptive.report.metrics.pages_skipped,
            exact1.report.metrics.pages_skipped);
  const auto& snapshot = adaptive.report.snapshot;
  ASSERT_TRUE(snapshot.count("dispatch.auto_min_active_edges"));
  const auto& dist = snapshot.at("dispatch.auto_min_active_edges");
  EXPECT_GT(dist.count, 0u);
  EXPECT_GT(dist.max, 1.0) << "skewed RMAT levels should raise the cut";
}

}  // namespace
}  // namespace gts
