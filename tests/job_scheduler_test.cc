// Tests for the gts::JobScheduler serving API (DESIGN.md section 13):
// single-job equivalence with Engine::Run and pinned single-job
// schedules, concurrent mixed-job batches, shared-topology page
// streaming, admission backpressure, cancellation, and the scheduler-era
// GtsOptions::Validate() rules.
#include "core/job/job_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/bc.h"
#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/reference.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "core/engine.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "ingest/update.h"
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
  m.device_memory = 32 * kMiB;
  return m;
}

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

/// Deterministic multi-job configuration: work_stealing satisfies the
/// Validate() rule for max_concurrent_jobs > 1, while keeping
/// use_stream_threads off routes batch passes through the inline push
/// loop (the pull path needs both flags), so batch schedules and kernel
/// execution order are reproducible run to run.
GtsOptions MultiJobOptions(int jobs) {
  GtsOptions opts;
  opts.max_concurrent_jobs = jobs;
  opts.dispatch.work_stealing = true;
  opts.use_stream_threads = false;
  return opts;
}

// ----------------------------------------------------- single-job path

struct DispatchParam {
  bool work_stealing;
  bool stream_threads;
};

class SoloJobTest : public ::testing::TestWithParam<DispatchParam> {};

/// A job submitted through Submit/Wait and the positional Engine::Run
/// shim both run as a batch epoch of one: results and deterministic
/// metrics match exactly across the dispatch-policy matrix. Both sides
/// take the same path, so SoloJobDigestTest below pins that path's
/// schedules against digests recorded before the engine had one run
/// body.
TEST_P(SoloJobTest, SubmitMatchesEngineRun) {
  TestGraph g = MakeTestGraph(11, 8);
  const VertexId source = BusySource(g.csr);

  GtsOptions opts;
  opts.dispatch.work_stealing = GetParam().work_stealing;
  opts.use_stream_threads = GetParam().stream_threads;

  // Reference: the positional Engine::Run API on a fresh engine.
  GtsEngine ref_engine(&g.paged, g.store.get(), TestMachine(), opts);
  BfsKernel ref_kernel(g.csr.num_vertices(), source);
  RunMetrics ref =
      std::move(ref_engine.Run(&ref_kernel, source)).ValueOrDie();

  // Same query via Submit/Wait on another fresh engine.
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), opts);
  BfsKernel kernel(g.csr.num_vertices(), source);
  JobOptions job;
  job.source = source;
  JobHandle handle = engine.scheduler().Submit(&kernel, job);
  ASSERT_TRUE(handle.valid());
  Result<RunReport> report = handle.Wait();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(handle.state(), JobState::kDone);

  ExpectBfsMatchesReference(g, kernel.levels(), source);
  ASSERT_EQ(kernel.levels().size(), ref_kernel.levels().size());
  EXPECT_EQ(kernel.levels(), ref_kernel.levels());

  const RunMetrics& got = report->metrics;
  EXPECT_EQ(got.pages_streamed, ref.pages_streamed);
  EXPECT_EQ(got.sp_kernel_calls, ref.sp_kernel_calls);
  EXPECT_EQ(got.lp_kernel_calls, ref.lp_kernel_calls);
  EXPECT_EQ(got.levels, ref.levels);
  EXPECT_EQ(got.work.edges_processed, ref.work.edges_processed);
  if (!GetParam().stream_threads) {
    // Thread-free configs record ops in one deterministic order, so the
    // simulated clock must be bit-identical.
    EXPECT_EQ(got.sim_seconds, ref.sim_seconds);
  } else {
    EXPECT_GT(got.sim_seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(DispatchMatrix, SoloJobTest,
                         ::testing::Values(DispatchParam{false, false},
                                           DispatchParam{true, false},
                                           DispatchParam{false, true},
                                           DispatchParam{true, true}));

// ------------------------------------------------ pinned solo schedules

uint64_t MixDigest(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ull;  // FNV-1a
  }
  return h;
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Folds every op of one pass's timeline into `h`: what the op is, where
/// it runs, what it waits on, what it moves, and when the simulator put
/// it.
uint64_t DigestTimeline(const gpu::ScheduleResult& timeline, uint64_t h) {
  h = MixDigest(h, timeline.ops.size());
  for (const gpu::TimelineOp& op : timeline.ops) {
    h = MixDigest(h, static_cast<uint64_t>(op.kind));
    h = MixDigest(h,
                  static_cast<uint64_t>(static_cast<int64_t>(op.stream_key)));
    h = MixDigest(h, static_cast<uint64_t>(op.resource.type));
    h = MixDigest(h, static_cast<uint64_t>(op.resource.index));
    h = MixDigest(h, op.dep0);
    h = MixDigest(h, op.dep1);
    h = MixDigest(h, op.page);
    h = MixDigest(h, static_cast<uint64_t>(static_cast<int64_t>(op.job)));
    h = MixDigest(h, op.bytes);
    h = MixDigest(h, DoubleBits(op.start));
    h = MixDigest(h, DoubleBits(op.duration));
  }
  return h;
}

/// One pinned single-job configuration: engine options, GPU count,
/// storage, and whether ingest updates are appended before each run.
struct DigestConfig {
  const char* name;
  int gpus;
  GtsOptions opts;
  bool ssd = false;
  bool append_updates = false;
};

std::vector<DigestConfig> DigestConfigs() {
  std::vector<DigestConfig> configs;
  auto base = [] {
    GtsOptions opts;
    opts.num_streams = 4;
    opts.keep_timeline = true;
    return opts;
  };
  configs.push_back({"p1", 1, base()});
  configs.push_back({"p2", 2, base()});
  {
    GtsOptions opts = base();
    opts.strategy = Strategy::kScalability;
    configs.push_back({"s2", 2, opts});
  }
  {
    GtsOptions opts = base();
    opts.cpu_assist_fraction = 0.25;
    configs.push_back({"cpu1", 1, opts});
    configs.push_back({"cpu2", 2, opts});
  }
  {
    GtsOptions opts = base();
    opts.ingest.enabled = true;
    opts.ingest.background_compaction = false;
    opts.ingest.gutter_capacity = 4;
    opts.ingest.compact_threshold = 2;
    configs.push_back({"ingest1", 1, opts, false, true});
  }
  {
    GtsOptions opts = base();
    opts.transfer.mode = transfer::TransferMode::kAuto;
    configs.push_back({"auto1", 1, opts});
    opts.io.queue_depth = 4;
    opts.io.wa_snapshot = true;
    configs.push_back({"auto-ssd2", 2, opts, true});
  }
  return configs;
}

/// Runs `algo` on a fresh inline engine under `config` and digests the
/// timeline of every pass it streams (PageRank: 2 iterations; BC: the
/// forward traversal plus each backward RunPass).
uint64_t DigestSoloRun(const TestGraph& g, const DigestConfig& config,
                       const std::string& algo) {
  std::unique_ptr<PageStore> ssd;
  PageStore* store = g.store.get();
  if (config.ssd) {
    const uint64_t topology =
        static_cast<uint64_t>(g.paged.num_pages()) * g.paged.config().page_size;
    ssd = MakeSsdStore(&g.paged, 2, topology / 5);
    store = ssd.get();
  }
  GtsEngine engine(&g.paged, store, TestMachine(config.gpus), config.opts);
  const VertexId n = g.csr.num_vertices();
  const VertexId source = BusySource(g.csr);
  if (config.append_updates) {
    ingest::UpdateBatch batch;
    for (VertexId v = 0; v < n; v += 5) {
      batch.push_back(ingest::EdgeUpdate::Insert(v, (v * 31 + 7) % n));
    }
    EXPECT_TRUE(engine.edge_stream()->Append(batch).ok());
  }
  uint64_t h = 14695981039346656037ull;
  auto fold = [&h](Result<RunMetrics> run) {
    EXPECT_TRUE(run.ok()) << run.status();
    if (!run.ok()) return RunMetrics{};
    h = DigestTimeline(run->timeline, h);
    return std::move(run).value();
  };
  if (algo == "bfs") {
    BfsKernel k(n, source);
    fold(engine.Run(&k, source));
  } else if (algo == "sssp") {
    SsspKernel k(n, source);
    fold(engine.Run(&k, source));
  } else if (algo == "pagerank") {
    PageRankKernel k(n);
    for (int iter = 0; iter < 2; ++iter) {
      k.BeginIteration();
      fold(engine.Run(&k));
      k.EndIteration();
    }
  } else {
    BcForwardKernel forward(n, source);
    const RunMetrics fwd = fold(engine.Run(&forward, source));
    BcBackwardKernel backward(forward.entries());
    for (int l = static_cast<int>(fwd.level_pages.size()) - 2; l >= 0; --l) {
      fold(engine.RunPass(&backward, fwd.level_pages[l],
                          static_cast<uint32_t>(l)));
    }
  }
  return h;
}

/// Pins the exact schedules of single-job inline runs. A single job runs
/// as a batch epoch of one, so SoloJobTest compares that path with
/// itself; these digests were recorded from the engine's former
/// dedicated single-run loop, and any op that moves, changes size or
/// timing, or gains a job tag changes them.
TEST(SoloJobDigestTest, InlineSchedulesMatchPinnedDigests) {
  TestGraph g = MakeTestGraph(11, 8);
  const std::map<std::string, uint64_t> pinned = {
      {"p1/bfs", 10038096812779727927ull},
      {"p1/sssp", 7917766813994530230ull},
      {"p1/pagerank", 11654406892401312485ull},
      {"p1/bc", 17003755928834842357ull},
      {"p2/bfs", 13715482184136925814ull},
      {"p2/sssp", 16920392791396886125ull},
      {"p2/pagerank", 18242442513665003689ull},
      {"s2/bfs", 17022681799708286571ull},
      {"s2/sssp", 6321132826549180471ull},
      {"s2/pagerank", 11550087298563161421ull},
      {"cpu1/bfs", 3590231012730904706ull},
      {"cpu1/sssp", 14789416739092039397ull},
      {"cpu1/pagerank", 5536184551504830473ull},
      {"cpu1/bc", 10435819079654176473ull},
      {"cpu2/bfs", 12252553131332640254ull},
      {"cpu2/sssp", 844112029988540675ull},
      {"cpu2/pagerank", 12184112679990810853ull},
      {"ingest1/bfs", 2083632278824688811ull},
      {"ingest1/sssp", 8165561236381502983ull},
      {"ingest1/pagerank", 13156003438075468709ull},
      {"ingest1/bc", 1162486867604844065ull},
      {"auto1/bfs", 4151123415059130939ull},
      {"auto1/sssp", 13405348382210828270ull},
      {"auto1/pagerank", 2467714717532564373ull},
      {"auto1/bc", 14981348834423861108ull},
      {"auto-ssd2/bfs", 7197850359760019305ull},
      {"auto-ssd2/sssp", 10595951174339871688ull},
      {"auto-ssd2/pagerank", 14629645533687829101ull},
  };
  for (const DigestConfig& config : DigestConfigs()) {
    std::vector<std::string> algos = {"bfs", "sssp", "pagerank"};
    if (config.gpus == 1) algos.push_back("bc");  // BC is single-GPU only
    for (const std::string& algo : algos) {
      const std::string key = std::string(config.name) + "/" + algo;
      const uint64_t digest = DigestSoloRun(g, config, algo);
      auto it = pinned.find(key);
      if (it == pinned.end()) {
        ADD_FAILURE() << "no pinned digest for {\"" << key << "\", "
                      << digest << "ull},";
        continue;
      }
      EXPECT_EQ(digest, it->second) << key;
    }
  }
}

TEST(JobSchedulerTest, TryJoinBeforeAndAfterCompletion) {
  TestGraph g = MakeTestGraph(10, 8);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), GtsOptions{});
  const VertexId source = BusySource(g.csr);
  BfsKernel kernel(g.csr.num_vertices(), source);
  JobOptions job;
  job.source = source;
  JobHandle handle = engine.scheduler().Submit(&kernel, job);

  // Nothing drives the scheduler yet, so the job is still queued.
  EXPECT_EQ(handle.state(), JobState::kQueued);
  EXPECT_FALSE(handle.TryJoin().has_value());
  EXPECT_EQ(engine.scheduler().queued_jobs(), 1u);

  ASSERT_TRUE(handle.Wait().ok());
  auto joined = handle.TryJoin();
  ASSERT_TRUE(joined.has_value());
  ASSERT_TRUE(joined->ok());
  EXPECT_GT((*joined)->metrics.pages_streamed, 0u);
  EXPECT_EQ(engine.scheduler().queued_jobs(), 0u);
}

TEST(JobSchedulerTest, WaitOnInvalidHandleFails) {
  JobHandle handle;
  EXPECT_FALSE(handle.valid());
  Result<RunReport> r = handle.Wait();
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(JobSchedulerTest, SubmitTraversalWithoutSourceFails) {
  TestGraph g = MakeTestGraph(10, 8);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), GtsOptions{});
  BfsKernel kernel(g.csr.num_vertices(), 0);
  JobHandle handle = engine.scheduler().Submit(&kernel, JobOptions{});
  Result<RunReport> r = handle.Wait();
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------- concurrent jobs

/// 2-4 concurrent mixed jobs (two BFS traversals and a PageRank scan
/// pass) over one shared graph produce results identical to running
/// each job alone on its own engine.
TEST(JobSchedulerTest, ConcurrentMixedJobsMatchSequential) {
  TestGraph g = MakeTestGraph(11, 8);
  const VertexId n = g.csr.num_vertices();
  const VertexId src_a = BusySource(g.csr);
  const VertexId src_b = (src_a + 1) % n;

  // Sequential baselines, one fresh engine per job.
  std::vector<uint16_t> want_a, want_b;
  std::vector<float> want_ranks;
  {
    GtsEngine solo(&g.paged, g.store.get(), TestMachine(), MultiJobOptions(1));
    BfsKernel k(n, src_a);
    ASSERT_TRUE(solo.Run(&k, src_a).ok());
    want_a = k.levels();
  }
  {
    GtsEngine solo(&g.paged, g.store.get(), TestMachine(), MultiJobOptions(1));
    BfsKernel k(n, src_b);
    ASSERT_TRUE(solo.Run(&k, src_b).ok());
    want_b = k.levels();
  }
  {
    GtsEngine solo(&g.paged, g.store.get(), TestMachine(), MultiJobOptions(1));
    PageRankKernel k(n);
    k.BeginIteration();
    ASSERT_TRUE(solo.Run(&k, kInvalidVertexId).ok());
    k.EndIteration();
    want_ranks = k.ranks();
  }

  // Concurrent batch: submit all three before the first Wait so one
  // epoch serves them together.
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), MultiJobOptions(3));
  BfsKernel bfs_a(n, src_a);
  BfsKernel bfs_b(n, src_b);
  PageRankKernel pr(n);
  pr.BeginIteration();

  JobOptions ja, jb;
  ja.source = src_a;
  jb.source = src_b;
  jb.priority = 3;  // fairness knob must not change results
  JobHandle ha = engine.scheduler().Submit(&bfs_a, ja);
  JobHandle hb = engine.scheduler().Submit(&bfs_b, jb);
  JobHandle hp = engine.scheduler().Submit(&pr, JobOptions{});

  Result<RunReport> ra = ha.Wait();
  Result<RunReport> rb = hb.Wait();
  Result<RunReport> rp = hp.Wait();
  ASSERT_TRUE(ra.ok()) << ra.status();
  ASSERT_TRUE(rb.ok()) << rb.status();
  ASSERT_TRUE(rp.ok()) << rp.status();
  pr.EndIteration();

  // BFS results are bit-identical to the sequential baselines (level
  // claims are order-insensitive min-CAS). PageRank ranks agree to float
  // precision: merged-demand dedup services a page at its earliest
  // position across all demanding jobs, so a scan's float accumulation
  // order can legally differ from its solo order by association.
  EXPECT_EQ(bfs_a.levels(), want_a);
  EXPECT_EQ(bfs_b.levels(), want_b);
  ASSERT_EQ(pr.ranks().size(), want_ranks.size());
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_NEAR(pr.ranks()[v], want_ranks[v], 1e-6f) << "vertex " << v;
  }

  // Every job in the batch epoch reports the epoch makespan.
  EXPECT_GT(ra->metrics.sim_seconds, 0.0);
  EXPECT_EQ(ra->metrics.sim_seconds, rb->metrics.sim_seconds);
  EXPECT_EQ(ra->metrics.sim_seconds, rp->metrics.sim_seconds);

  const auto snapshot = engine.metrics_registry()->Snapshot();
  ASSERT_TRUE(snapshot.count("jobs.completed"));
  EXPECT_EQ(snapshot.at("jobs.completed").count, 3u);
}

/// Two BFS jobs over the same graph share the topology stream: each
/// demanded page is transferred once per pass and serves both jobs, so
/// the batch streams strictly fewer pages than two sequential solos.
TEST(JobSchedulerTest, SharedGraphJobsStreamPagesOnce) {
  TestGraph g = MakeTestGraph(11, 8);
  const VertexId n = g.csr.num_vertices();
  const VertexId source = BusySource(g.csr);

  uint64_t solo_pages = 0;
  {
    GtsEngine solo(&g.paged, g.store.get(), TestMachine(), MultiJobOptions(1));
    BfsKernel k(n, source);
    RunMetrics m = std::move(solo.Run(&k, source)).ValueOrDie();
    solo_pages = m.pages_streamed;
  }
  ASSERT_GT(solo_pages, 0u);

  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), MultiJobOptions(2));
  BfsKernel ka(n, source);
  BfsKernel kb(n, source);
  JobOptions job;
  job.source = source;
  JobHandle ha = engine.scheduler().Submit(&ka, job);
  JobHandle hb = engine.scheduler().Submit(&kb, job);
  Result<RunReport> ra = ha.Wait();
  Result<RunReport> rb = hb.Wait();
  ASSERT_TRUE(ra.ok()) << ra.status();
  ASSERT_TRUE(rb.ok()) << rb.status();

  // Both jobs still compute the right answer.
  ExpectBfsMatchesReference(g, ka.levels(), source);
  ExpectBfsMatchesReference(g, kb.levels(), source);

  // pages_streamed uses first-demander attribution, so the per-job sum
  // is the number of distinct H2D page transfers in the epoch. Identical
  // frontiers demand every page twice; sharing must beat 2x solo.
  const uint64_t batch_pages =
      ra->metrics.pages_streamed + rb->metrics.pages_streamed;
  EXPECT_LT(batch_pages, 2 * solo_pages)
      << "shared-graph jobs must not re-stream pages per job";

  // The second demander of each shared page is visible in the metrics.
  const uint64_t shared_hits =
      ra->metrics.shared_page_hits + rb->metrics.shared_page_hits;
  EXPECT_GT(shared_hits, 0u);
  const auto snapshot = engine.metrics_registry()->Snapshot();
  ASSERT_TRUE(snapshot.count("cache.shared_page_hits"));
  EXPECT_EQ(snapshot.at("cache.shared_page_hits").count, shared_hits);
}

/// Page-cache statistics of a 2-job epoch: every lookup is credited to
/// the page's first demander (like pages_streamed), so the jobs' counts
/// sum to the cache's own counters for the epoch.
TEST(JobSchedulerTest, BatchJobsReportCacheStatistics) {
  TestGraph g = MakeTestGraph(11, 8);
  const VertexId n = g.csr.num_vertices();
  const VertexId src_a = BusySource(g.csr);
  const VertexId src_b = (src_a + 1) % n;
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), MultiJobOptions(2));
  auto counter = [&engine](const char* name) -> uint64_t {
    const auto snapshot = engine.metrics_registry()->Snapshot();
    auto it = snapshot.find(name);
    return it == snapshot.end() ? 0 : it->second.count;
  };
  const uint64_t lookups_before = counter("cache.gpu0.lookups");
  const uint64_t hits_before = counter("cache.gpu0.hits");

  BfsKernel ka(n, src_a);
  BfsKernel kb(n, src_b);
  JobOptions ja, jb;
  ja.source = src_a;
  jb.source = src_b;
  JobHandle ha = engine.scheduler().Submit(&ka, ja);
  JobHandle hb = engine.scheduler().Submit(&kb, jb);
  Result<RunReport> ra = ha.Wait();
  Result<RunReport> rb = hb.Wait();
  ASSERT_TRUE(ra.ok()) << ra.status();
  ASSERT_TRUE(rb.ok()) << rb.status();
  ASSERT_EQ(ra->metrics.sim_seconds, rb->metrics.sim_seconds)
      << "both jobs must have shared one epoch";

  const RunMetrics& a = ra->metrics;
  const RunMetrics& b = rb->metrics;
  EXPECT_EQ(a.cache_lookups + b.cache_lookups,
            counter("cache.gpu0.lookups") - lookups_before);
  EXPECT_EQ(a.cache_hits + b.cache_hits,
            counter("cache.gpu0.hits") - hits_before);
  EXPECT_GT(a.cache_hits + b.cache_hits, 0u);
  EXPECT_GT(a.cache_hit_rate() + b.cache_hit_rate(), 0.0);
  // Backpressure is epoch-wide, like the shared io counters.
  EXPECT_EQ(a.cache_backpressure, b.cache_backpressure);
}

/// Lock-order findings are drained into every job of the epoch that
/// accrued them (GTS_SYNC_CHECK builds; check_sync runs this for real),
/// never billed to the next run.
TEST(JobSchedulerTest, BatchJobsCarryLockOrderAnalysis) {
  TestGraph g = MakeTestGraph(10, 8);
  const VertexId n = g.csr.num_vertices();
  const VertexId source = BusySource(g.csr);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), MultiJobOptions(2));
  BfsKernel ka(n, source);
  PageRankKernel pr(n);
  pr.BeginIteration();
  JobOptions ja;
  ja.source = source;
  JobHandle ha = engine.scheduler().Submit(&ka, ja);
  JobHandle hp = engine.scheduler().Submit(&pr, JobOptions{});
  for (JobHandle* h : {&ha, &hp}) {
    Result<RunReport> r = h->Wait();
    ASSERT_TRUE(r.ok()) << r.status();
    const analysis::RaceReport& report = r->metrics.analysis;
    EXPECT_EQ(report.sync_check_ran, analysis::sync::kSyncCheckCompiled);
    if (analysis::sync::kSyncCheckCompiled) {
      EXPECT_GT(report.lock_acquisitions, 0u);
      EXPECT_EQ(report.lock_order_violations, 0u) << report.ToString();
    }
  }
}

/// WCC (iterating driver) and BFS submitted from two threads against one
/// engine: driver handoff between waiters must deliver both results.
TEST(JobSchedulerTest, DriversShareEngineAcrossThreads) {
  TestGraph g = MakeTestGraph(10, 4, PageConfig::Small22(),
                              /*symmetric=*/true);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), MultiJobOptions(2));
  const VertexId source = BusySource(g.csr);

  Result<BfsGtsResult> bfs = Status::Internal("not run");
  Result<WccGtsResult> wcc = Status::Internal("not run");
  std::thread t1([&] { bfs = RunBfsGts(engine, source); });
  std::thread t2([&] { wcc = RunWccGts(engine); });
  t1.join();
  t2.join();

  ASSERT_TRUE(bfs.ok()) << bfs.status();
  ASSERT_TRUE(wcc.ok()) << wcc.status();
  ExpectBfsMatchesReference(g, bfs->levels, source);
  const auto want_labels = ReferenceWcc(g.csr);
  ASSERT_EQ(wcc->labels.size(), want_labels.size());
  for (size_t v = 0; v < want_labels.size(); ++v) {
    ASSERT_EQ(wcc->labels[v], want_labels[v]) << "vertex " << v;
  }
}

// -------------------------------------------------- admission control

/// With device memory sized for roughly one job's WA partition, a batch
/// of concurrent jobs oversubscribes admission: the extras are deferred
/// to later cycles (never crash) and still complete correctly.
TEST(JobSchedulerTest, OversubscribedWaDefersJobs) {
  TestGraph g = MakeTestGraph(11, 8);
  const VertexId n = g.csr.num_vertices();
  const VertexId source = BusySource(g.csr);
  const uint64_t page_size = g.paged.config().page_size;

  GtsOptions opts = MultiJobOptions(4);
  opts.num_streams = 1;
  opts.enable_cache = false;  // keep the memory budget analyzable

  // One BFS WA partition plus stream buffers fits; a second WA does not.
  BfsKernel sizing(n, source);
  const uint64_t wa = uint64_t{n} * sizing.wa_bytes_per_vertex();
  MachineConfig m = TestMachine();
  m.device_memory = wa + wa / 2 + 4 * page_size;

  GtsEngine engine(&g.paged, g.store.get(), m, opts);
  std::vector<std::unique_ptr<BfsKernel>> kernels;
  std::vector<JobHandle> handles;
  JobOptions job;
  job.source = source;
  for (int i = 0; i < 4; ++i) {
    kernels.push_back(std::make_unique<BfsKernel>(n, source));
    handles.push_back(engine.scheduler().Submit(kernels.back().get(), job));
  }
  for (auto& handle : handles) {
    Result<RunReport> r = handle.Wait();
    ASSERT_TRUE(r.ok()) << r.status();
  }
  for (const auto& kernel : kernels) {
    ExpectBfsMatchesReference(g, kernel->levels(), source);
  }

  const auto snapshot = engine.metrics_registry()->Snapshot();
  ASSERT_TRUE(snapshot.count("jobs.deferred"));
  EXPECT_GT(snapshot.at("jobs.deferred").count, 0u)
      << "undersized device memory must defer, not co-run, extra jobs";
  EXPECT_EQ(snapshot.at("jobs.completed").count, 4u);
}

/// A job whose WA cannot fit even alone fails with the allocation error
/// instead of deferring forever.
TEST(JobSchedulerTest, JobTooLargeForDeviceFailsCleanly) {
  TestGraph g = MakeTestGraph(11, 8);
  const VertexId n = g.csr.num_vertices();
  const VertexId source = BusySource(g.csr);

  GtsOptions opts;
  opts.num_streams = 1;
  opts.enable_cache = false;
  MachineConfig m = TestMachine();
  BfsKernel sizing(n, source);
  m.device_memory = uint64_t{n} * sizing.wa_bytes_per_vertex() / 4;

  GtsEngine engine(&g.paged, g.store.get(), m, opts);
  BfsKernel kernel(n, source);
  JobOptions job;
  job.source = source;
  Result<RunReport> r = engine.scheduler().Submit(&kernel, job).Wait();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().code(), StatusCode::kCancelled);
}

// -------------------------------------------------------- cancellation

TEST(JobSchedulerTest, CancelQueuedJobCompletesImmediately) {
  TestGraph g = MakeTestGraph(10, 8);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), GtsOptions{});
  const VertexId source = BusySource(g.csr);
  BfsKernel keep(g.csr.num_vertices(), source);
  BfsKernel drop(g.csr.num_vertices(), source);
  JobOptions job;
  job.source = source;

  // Nothing drives until the first Wait, so `drop` is still queued when
  // cancelled.
  JobHandle keep_handle = engine.scheduler().Submit(&keep, job);
  JobHandle drop_handle = engine.scheduler().Submit(&drop, job);
  EXPECT_TRUE(drop_handle.Cancel());
  EXPECT_EQ(drop_handle.state(), JobState::kDone);
  Result<RunReport> dropped = drop_handle.Wait();
  EXPECT_TRUE(dropped.status().IsCancelled()) << dropped.status();
  EXPECT_FALSE(drop_handle.Cancel()) << "already finished";

  Result<RunReport> kept = keep_handle.Wait();
  ASSERT_TRUE(kept.ok()) << kept.status();
  ExpectBfsMatchesReference(g, keep.levels(), source);

  const auto snapshot = engine.metrics_registry()->Snapshot();
  EXPECT_EQ(snapshot.at("jobs.cancelled").count, 1u);
}

/// Cancelling a running job stops it at a level boundary. The race
/// between cancel and completion is inherent, so either outcome is
/// legal; what must hold is that the handle resolves and the engine
/// stays usable afterwards.
TEST(JobSchedulerTest, CancelRunningJobResolvesAndEngineSurvives) {
  TestGraph g = MakeTestGraph(12, 8);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), GtsOptions{});
  const VertexId source = BusySource(g.csr);
  BfsKernel kernel(g.csr.num_vertices(), source);
  JobOptions job;
  job.source = source;
  JobHandle handle = engine.scheduler().Submit(&kernel, job);

  Result<RunReport> r = Status::Internal("not run");
  std::thread waiter([&] { r = handle.Wait(); });
  handle.Cancel();
  waiter.join();
  ASSERT_TRUE(r.ok() || r.status().IsCancelled()) << r.status();

  // The engine must accept and complete new jobs after a cancellation.
  BfsKernel again(g.csr.num_vertices(), source);
  Result<RunReport> r2 = engine.scheduler().Submit(&again, job).Wait();
  ASSERT_TRUE(r2.ok()) << r2.status();
  ExpectBfsMatchesReference(g, again.levels(), source);
}

// ------------------------------------------------- Validate() coverage

TEST(JobSchedulerValidateTest, MultiJobNeedsConcurrentDispatchPath) {
  GtsOptions opts;
  opts.max_concurrent_jobs = 2;
  opts.dispatch.work_stealing = false;
  opts.use_stream_threads = false;
  EXPECT_EQ(opts.Validate(TestMachine()).code(),
            StatusCode::kInvalidArgument);

  opts.dispatch.work_stealing = true;
  EXPECT_TRUE(opts.Validate(TestMachine()).ok());
  opts.dispatch.work_stealing = false;
  opts.use_stream_threads = true;
  EXPECT_TRUE(opts.Validate(TestMachine()).ok());
}

TEST(JobSchedulerValidateTest, MultiJobRejectsCpuAssist) {
  GtsOptions opts = MultiJobOptions(2);
  opts.cpu_assist_fraction = 0.25;
  EXPECT_EQ(opts.Validate(TestMachine()).code(),
            StatusCode::kInvalidArgument);
  opts.cpu_assist_fraction = 0.0;
  EXPECT_TRUE(opts.Validate(TestMachine()).ok());
}

TEST(JobSchedulerValidateTest, MaxConcurrentJobsMustBePositive) {
  GtsOptions opts;
  opts.max_concurrent_jobs = 0;
  EXPECT_EQ(opts.Validate(TestMachine()).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gts
