// Dispatch contracts: ordering is a pure permutation (identical
// algorithm results across page orders), stream threads compute what the
// inline loop does, the admission threshold drops no work, and the
// dispatch metrics publish.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/wcc.h"
#include "core/dispatch/page_order.h"
#include "core/engine.h"
#include "core/frontier.h"
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

// ------------------------------------------------------ OrderPages units

TEST(PageOrderPolicyTest, SpThenLpConcatenates) {
  auto out = OrderPages(PageOrderKind::kSpThenLp, {0, 2, 5}, {1, 3, 4},
                        PageOrderContext{}, nullptr);
  EXPECT_EQ(out, (std::vector<PageId>{0, 2, 5, 1, 3, 4}));
}

TEST(PageOrderPolicyTest, InterleavedSortsByPid) {
  auto out = OrderPages(PageOrderKind::kInterleaved, {0, 2, 5}, {1, 3, 4},
                        PageOrderContext{}, nullptr);
  EXPECT_EQ(out, (std::vector<PageId>{0, 1, 2, 3, 4, 5}));
}

TEST(PageOrderPolicyTest, FrontierDensitySortsDescendingWithPidTiebreak) {
  PageOrderContext ctx;
  ctx.frontier_count = [](PageId pid) -> uint32_t {
    if (pid == 1) return 9;
    if (pid == 3 || pid == 5) return 4;
    return 0;
  };
  auto out = OrderPages(PageOrderKind::kFrontierDensity, {0, 1, 2},
                        {3, 4, 5}, ctx, nullptr);
  // Within SPs: 1 (9 hits) first, then 0 and 2 (ties keep ascending pid).
  // Within LPs: 3 and 5 tie at 4 hits, pid order breaks the tie.
  EXPECT_EQ(out, (std::vector<PageId>{1, 0, 2, 3, 5, 4}));
}

TEST(PageOrderPolicyTest, FrontierDensityDegradesWithoutCounts) {
  auto out = OrderPages(PageOrderKind::kFrontierDensity, {2, 0}, {1},
                        PageOrderContext{}, nullptr);
  EXPECT_EQ(out, (std::vector<PageId>{2, 0, 1}));
}

// ------------------------------------------------------------ page route

/// GPUs whose kernel pool ran each page of one PageRank scan.
std::map<PageId, std::set<int>> RouteScan(Fixture& f, int gpus,
                                          GtsOptions opts) {
  opts.keep_timeline = true;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(gpus), opts);
  auto pr = RunPageRankGts(engine, {.iterations = 1});
  GTS_CHECK(pr.ok()) << pr.status().ToString();
  std::map<PageId, std::set<int>> routes;
  for (const gpu::TimelineOp& op : pr->report.metrics.timeline.ops) {
    if (op.kind == gpu::OpKind::kKernel &&
        op.resource.type == gpu::ResourceId::Type::kKernelPool) {
      routes[op.page].insert(op.resource.index);
    }
  }
  return routes;
}

/// The strategy alone routes pages: Strategy-P stripes page j to GPU
/// j mod n (Section 4.1) and Strategy-S sends every page to every GPU
/// (Section 4.2). Three GPUs, which no pinned digest covers, so a route
/// that only agrees with j mod n on two GPUs fails here.
TEST(DispatchRouteTest, StrategyRoutesEveryPage) {
  Fixture f;
  const auto striped = RouteScan(f, 3, GtsOptions{});
  EXPECT_EQ(striped.size(), f.paged.num_pages());
  for (const auto& [pid, gpus] : striped) {
    EXPECT_EQ(gpus, (std::set<int>{static_cast<int>(pid % 3)})) << pid;
  }

  GtsOptions s_opts;
  s_opts.strategy = Strategy::kScalability;
  const auto replicated = RouteScan(f, 3, s_opts);
  EXPECT_EQ(replicated.size(), f.paged.num_pages());
  for (const auto& [pid, gpus] : replicated) {
    EXPECT_EQ(gpus, (std::set<int>{0, 1, 2})) << pid;
  }
}

// ------------------------------------------------- PidSet counting

TEST(PidSetCountingTest, CountsActivationsOnlyWhenEnabled) {
  PidSet set(8);
  set.Set(3);
  EXPECT_EQ(set.CountOf(3), 0u);  // counting off: membership only
  EXPECT_FALSE(set.counting());

  set.EnableCounting();
  set.Set(3);
  set.Set(3);
  set.Set(5);
  EXPECT_TRUE(set.counting());
  EXPECT_EQ(set.CountOf(3), 2u);
  EXPECT_EQ(set.CountOf(5), 1u);
  EXPECT_EQ(set.CountOf(0), 0u);

  PidSet other(8);
  other.EnableCounting();
  other.Set(3);
  set.Union(other);
  EXPECT_EQ(set.CountOf(3), 3u);  // counts sum across counted sets

  set.Clear();
  EXPECT_EQ(set.CountOf(3), 0u);
  EXPECT_TRUE(set.Empty());
}

// --------------------------------------- end-to-end policy equivalence

/// Every page order must produce bit-identical algorithm results:
/// ordering changes the simulated schedule, never what the kernels
/// compute.
TEST(DispatchEquivalenceTest, BfsLevelsIdenticalAcrossAllPolicies) {
  Fixture f;
  const VertexId source = f.Source();

  std::vector<uint16_t> reference;
  for (auto order :
       {PageOrderKind::kSpThenLp, PageOrderKind::kInterleaved,
        PageOrderKind::kFrontierDensity}) {
    GtsOptions opts;
    opts.dispatch.order = order;
    GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
    auto bfs = RunBfsGts(engine, source);
    ASSERT_TRUE(bfs.ok()) << PageOrderKindName(order);
    if (reference.empty()) {
      reference = bfs->levels;
    } else {
      EXPECT_EQ(bfs->levels, reference) << PageOrderKindName(order);
    }
  }
}

TEST(DispatchEquivalenceTest, WccLabelsIdenticalAcrossOrderPolicies) {
  Fixture f;
  std::vector<uint64_t> reference;
  for (auto order : {PageOrderKind::kSpThenLp, PageOrderKind::kInterleaved,
                     PageOrderKind::kFrontierDensity}) {
    GtsOptions opts;
    opts.dispatch.order = order;
    GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
    auto wcc = RunWccGts(engine);
    ASSERT_TRUE(wcc.ok()) << PageOrderKindName(order);
    if (reference.empty()) {
      reference = wcc->labels;
    } else {
      EXPECT_EQ(wcc->labels, reference) << PageOrderKindName(order);
    }
  }
}

/// Stream threads run the kernels concurrently and atomically, which
/// must change only the host execution: BFS levels (an integer kernel)
/// stay bit-identical to the inline push loop on one and two GPUs, and
/// the per-run schedule validation stays clean.
TEST(DispatchEquivalenceTest, StreamThreadsBitIdenticalToInline) {
  Fixture f;
  const VertexId source = f.Source();
  for (int gpus : {1, 2}) {
    std::vector<uint16_t> reference;
    for (bool threads : {false, true}) {
      GtsOptions opts;
      opts.num_streams = 4;
      opts.use_stream_threads = threads;
      GtsEngine engine(&f.paged, f.store.get(), f.Machine(gpus), opts);
      auto bfs = RunBfsGts(engine, source);
      const std::string what =
          std::string(threads ? "threads" : "inline") + " x" +
          std::to_string(gpus);
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

// ------------------------------------------------ policy effectiveness

TEST(DispatchEffectTest, SequentialMergeCutsScanIoTime) {
  Fixture f;
  auto scan_with = [&](bool merge_sequential) {
    auto store = MakeSsdStore(&f.paged, 2, /*buffer_capacity=*/256 * kKiB);
    GtsOptions opts;
    opts.io.merge_sequential = merge_sequential;
    GtsEngine engine(&f.paged, store.get(), f.Machine(), opts);
    auto pr = RunPageRankGts(engine, {.iterations = 1});
    GTS_CHECK(pr.ok());
    return pr->report.metrics;
  };

  const RunMetrics base = scan_with(false);
  const RunMetrics merged = scan_with(true);
  EXPECT_EQ(base.io_queue.merged_bursts, 0u);
  // A scan in SP-then-LP order fetches each device's stripe in ascending
  // offset order: nearly every read continues the previous one, so
  // merge_sequential charges it SequentialReadCost.
  EXPECT_GT(merged.io_queue.merged_bursts, 0u);
  EXPECT_EQ(merged.io.device_reads, base.io.device_reads);
  EXPECT_LT(merged.storage_busy, base.storage_busy);
}

// ------------------------------------------------- admission threshold

/// Appends `n_sinks` out-degree-0 vertices, all targeted by `hub`. Dense
/// RMAT pages almost always hold at least one non-sink activation, so to
/// make the admission cut provably fire the sinks span whole pages of
/// their own: activating them marks those pages with zero active edges.
EdgeList WithSinkFanout(const EdgeList& base, VertexId hub,
                        VertexId n_sinks) {
  EdgeList out = base;
  const VertexId first = base.num_vertices();
  out.set_num_vertices(first + n_sinks);
  for (VertexId i = 0; i < n_sinks; ++i) out.Add(hub, first + i);
  return out;
}

/// skip_edgeless_pages admits only frontier pages holding at least one
/// active *edge*. A page whose activations were all sink vertices (weight
/// 0 in the degree-weighted PidSet) expands nothing, so skipping it must
/// change no result and no WA traffic -- the correctness guard for the
/// skip.
TEST(DispatchAdmissionTest, ThresholdOneSkipsPagesWithoutChangingResults) {
  Fixture f;
  const VertexId source = f.Source();
  // 4096 sinks fill ~20 pages behind the RMAT pages; BFS reaches them
  // one level after the hub and their pages carry zero active edges.
  EdgeList edges = WithSinkFanout(f.edges, source, 4096);
  CsrGraph csr = CsrGraph::FromEdgeList(edges);
  PagedGraph paged =
      std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
  auto store = MakeInMemoryStore(&paged);

  auto run_with = [&](bool skip) {
    GtsOptions opts;
    opts.dispatch.skip_edgeless_pages = skip;
    GtsEngine engine(&paged, store.get(), f.Machine(), opts);
    auto bfs = RunBfsGts(engine, source);
    GTS_CHECK(bfs.ok()) << bfs.status().ToString();
    return std::make_pair(bfs->levels, bfs->report.metrics);
  };

  const auto [base_levels, base_metrics] = run_with(false);
  const auto [cut_levels, cut_metrics] = run_with(true);

  EXPECT_EQ(cut_levels, base_levels);
  // Skipped pages contribute no WA updates by construction: the totals
  // must agree exactly, not approximately.
  EXPECT_EQ(cut_metrics.work.wa_updates, base_metrics.work.wa_updates);
  EXPECT_EQ(cut_metrics.work.edges_processed,
            base_metrics.work.edges_processed);
  // An RMAT graph has plenty of sink vertices, so the cut genuinely fires.
  EXPECT_EQ(base_metrics.pages_skipped, 0u);
  EXPECT_GT(cut_metrics.pages_skipped, 0u);
  // Identical levels mean identical per-level frontiers, so every skipped
  // page is one page the base run processed (streamed, co-processed, or
  // served from the GPU cache) and the cut run never touched.
  EXPECT_EQ(cut_metrics.pages_streamed + cut_metrics.cpu_pages +
                cut_metrics.cache_hits + cut_metrics.pages_skipped,
            base_metrics.pages_streamed + base_metrics.cpu_pages +
                base_metrics.cache_hits);
}

TEST(DispatchAdmissionTest, SkippedPagesCounterPublishes) {
  Fixture f;
  GtsOptions opts;
  opts.dispatch.skip_edgeless_pages = true;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
  auto bfs = RunBfsGts(engine, f.Source());
  ASSERT_TRUE(bfs.ok());
  const auto& snapshot = bfs->report.snapshot;
  ASSERT_TRUE(snapshot.count("dispatch.skipped_pages"));
  EXPECT_EQ(snapshot.at("dispatch.skipped_pages").count,
            bfs->report.metrics.pages_skipped);
}

/// Full scans have no frontier, so the skip must be a no-op there.
TEST(DispatchAdmissionTest, ThresholdIgnoredOnFullScans) {
  Fixture f;
  GtsOptions opts;
  opts.dispatch.skip_edgeless_pages = true;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
  auto pr = RunPageRankGts(engine, {.iterations = 1});
  ASSERT_TRUE(pr.ok());
  EXPECT_EQ(pr->report.metrics.pages_skipped, 0u);
}

TEST(DispatchMetricsTest, DispatchCountersAppearInSnapshot) {
  Fixture f;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(2), GtsOptions{});
  // Registered at construction, so snapshot keys do not depend on
  // whether a run planned a pass.
  EXPECT_TRUE(engine.metrics_registry()->Snapshot().count("dispatch.passes"));
  auto pr = RunPageRankGts(engine, {.iterations = 1});
  ASSERT_TRUE(pr.ok());
  const auto& snapshot = pr->report.snapshot;
  ASSERT_TRUE(snapshot.count("dispatch.passes"));
  EXPECT_EQ(snapshot.at("dispatch.passes").count, 1u);
  EXPECT_EQ(snapshot.at("dispatch.pages_ordered").count,
            f.paged.num_pages());
}

}  // namespace
}  // namespace gts
