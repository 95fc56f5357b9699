// The dispatch pipeline's policy contracts: ordering is a pure
// permutation (identical algorithm results across policies), partition
// plans cover every page, stream threads compute what the inline loop
// does, and the policy metrics publish.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/wcc.h"
#include "core/dispatch/dispatch_pipeline.h"
#include "core/dispatch/gpu_partition_policy.h"
#include "core/dispatch/page_order_policy.h"
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

// ------------------------------------------------- PageOrderPolicy units

TEST(PageOrderPolicyTest, SpThenLpConcatenates) {
  auto policy = MakePageOrderPolicy(PageOrderKind::kSpThenLp, nullptr);
  auto out = policy->Order({0, 2, 5}, {1, 3, 4}, PageOrderContext{});
  EXPECT_EQ(out, (std::vector<PageId>{0, 2, 5, 1, 3, 4}));
}

TEST(PageOrderPolicyTest, InterleavedSortsByPid) {
  auto policy = MakePageOrderPolicy(PageOrderKind::kInterleaved, nullptr);
  auto out = policy->Order({0, 2, 5}, {1, 3, 4}, PageOrderContext{});
  EXPECT_EQ(out, (std::vector<PageId>{0, 1, 2, 3, 4, 5}));
}

TEST(PageOrderPolicyTest, CacheAffinityFrontsCachedPagesPerGroup) {
  auto policy = MakePageOrderPolicy(PageOrderKind::kCacheAffinity, nullptr);
  PageOrderContext ctx;
  ctx.is_cached = [](PageId pid) { return pid == 2 || pid == 4; };
  // Cached pages move to the front of their own group; relative order
  // inside the cached and uncached partitions is preserved (stable), and
  // SPs still stream before LPs.
  auto out = policy->Order({0, 1, 2}, {3, 4, 5}, ctx);
  EXPECT_EQ(out, (std::vector<PageId>{2, 0, 1, 4, 3, 5}));
}

TEST(PageOrderPolicyTest, CacheAffinityDegradesWithoutCacheInfo) {
  auto policy = MakePageOrderPolicy(PageOrderKind::kCacheAffinity, nullptr);
  auto out = policy->Order({0, 1}, {2, 3}, PageOrderContext{});
  EXPECT_EQ(out, (std::vector<PageId>{0, 1, 2, 3}));
}

TEST(PageOrderPolicyTest, FrontierDensitySortsDescendingWithPidTiebreak) {
  auto policy = MakePageOrderPolicy(PageOrderKind::kFrontierDensity, nullptr);
  EXPECT_TRUE(policy->needs_frontier_counts());
  PageOrderContext ctx;
  ctx.frontier_count = [](PageId pid) -> uint32_t {
    if (pid == 1) return 9;
    if (pid == 3 || pid == 5) return 4;
    return 0;
  };
  auto out = policy->Order({0, 1, 2}, {3, 4, 5}, ctx);
  // Within SPs: 1 (9 hits) first, then 0 and 2 (ties keep ascending pid).
  // Within LPs: 3 and 5 tie at 4 hits, pid order breaks the tie.
  EXPECT_EQ(out, (std::vector<PageId>{1, 0, 2, 3, 5, 4}));
}

TEST(PageOrderPolicyTest, FrontierDensityDegradesWithoutCounts) {
  auto policy = MakePageOrderPolicy(PageOrderKind::kFrontierDensity, nullptr);
  auto out = policy->Order({2, 0}, {1}, PageOrderContext{});
  EXPECT_EQ(out, (std::vector<PageId>{2, 0, 1}));
}

// --------------------------------------------- GpuPartitionPolicy units

TEST(GpuPartitionPolicyTest, RoundRobinStripesByPid) {
  auto policy =
      MakeGpuPartitionPolicy(GpuPartitionKind::kRoundRobin, 3, nullptr);
  EXPECT_FALSE(policy->replicates());
  EXPECT_FALSE(policy->needs_pass_plan());
  for (PageId pid = 0; pid < 9; ++pid) {
    EXPECT_EQ(policy->Assign(pid), static_cast<int>(pid % 3));
  }
}

TEST(GpuPartitionPolicyTest, ReplicateSendsEverywhere) {
  auto policy =
      MakeGpuPartitionPolicy(GpuPartitionKind::kReplicate, 4, nullptr);
  EXPECT_TRUE(policy->replicates());
  EXPECT_EQ(policy->Assign(17), 0);
}

TEST(GpuPartitionPolicyTest, DegreeBalancedCoversAndBalances) {
  Fixture f;
  const int kGpus = 3;
  auto policy = MakeGpuPartitionPolicy(GpuPartitionKind::kDegreeBalanced,
                                       kGpus, nullptr);
  ASSERT_TRUE(policy->needs_pass_plan());
  std::vector<PageId> all;
  for (PageId pid = 0; pid < f.paged.num_pages(); ++pid) all.push_back(pid);
  policy->BeginPass(all, f.paged);

  std::vector<uint64_t> load(kGpus, 0);
  for (PageId pid : all) {
    const int g = policy->Assign(pid);
    ASSERT_GE(g, 0);
    ASSERT_LT(g, kGpus);
    const PageView view = f.paged.view(pid);
    load[g] += view.num_slots() + view.total_entries();
  }
  // Greedy min-load placement: no GPU carries more than the mean plus the
  // heaviest single page (the classic greedy bound, far tighter than the
  // 2x worst case on real page weights).
  uint64_t total = 0, heaviest = 0;
  for (PageId pid : all) {
    const PageView view = f.paged.view(pid);
    const uint64_t w = view.num_slots() + view.total_entries();
    total += w;
    heaviest = std::max(heaviest, w);
  }
  const uint64_t mean = total / kGpus;
  for (int g = 0; g < kGpus; ++g) {
    EXPECT_LE(load[g], mean + heaviest) << "gpu " << g;
    EXPECT_GT(load[g], 0u) << "gpu " << g;
  }
}

TEST(GpuPartitionPolicyTest, DegreeBalancedFallsBackForUnplannedPages) {
  Fixture f;
  auto policy =
      MakeGpuPartitionPolicy(GpuPartitionKind::kDegreeBalanced, 2, nullptr);
  policy->BeginPass({0}, f.paged);
  // Page 1 was not in the pass plan: striping places it deterministically.
  EXPECT_EQ(policy->Assign(1), 1);
}

// ------------------------------------------------- DispatchPipeline units

TEST(DispatchPipelineTest, StrategyDefaultResolvesPerStrategy) {
  const DispatchOptions defaults;
  DispatchPipeline perf(defaults, /*replicate_stream_default=*/false, 2,
                        nullptr);
  EXPECT_EQ(perf.partition_kind(), GpuPartitionKind::kRoundRobin);
  EXPECT_FALSE(perf.replicates());

  DispatchPipeline scal(defaults, /*replicate_stream_default=*/true, 2,
                        nullptr);
  EXPECT_EQ(scal.partition_kind(), GpuPartitionKind::kReplicate);
  EXPECT_TRUE(scal.replicates());

  // One GPU: replication degrades to striping so the CPU-assist route
  // stays reachable (the monolith's `n_gpus > 1` guard).
  DispatchPipeline single(defaults, /*replicate_stream_default=*/true, 1,
                          nullptr);
  EXPECT_EQ(single.partition_kind(), GpuPartitionKind::kRoundRobin);
  EXPECT_FALSE(single.replicates());
}

TEST(DispatchPipelineTest, PlanPassPublishesMetrics) {
  Fixture f;
  obs::MetricsRegistry registry;
  DispatchPipeline pipeline(DispatchOptions{}, false, 1, &registry);
  auto out = pipeline.PlanPass({0, 1}, {2}, f.paged, PageOrderContext{});
  EXPECT_EQ(out.size(), 3u);
  const auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.at("dispatch.passes").count, 1u);
  EXPECT_EQ(snapshot.at("dispatch.pages_ordered").count, 3u);
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
        PageOrderKind::kCacheAffinity, PageOrderKind::kFrontierDensity}) {
    GtsOptions opts;
    opts.cache_policy = CachePolicy::kLru;
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
                     PageOrderKind::kCacheAffinity}) {
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

/// Under LRU churn (cache far smaller than the traversal working set),
/// fronting cached-resident pages converts them to hits before the pass's
/// own inserts evict them; the paper-default order loses some of those.
TEST(DispatchEffectTest, CacheAffinityRaisesLruHits) {
  Fixture f(11, 8, 7);
  const VertexId source = f.Source();

  auto hits_with = [&](PageOrderKind order) {
    GtsOptions opts;
    opts.cache_policy = CachePolicy::kLru;
    opts.cache_bytes = 64 * kKiB;  // a handful of pages: heavy churn
    opts.dispatch.order = order;
    GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
    auto bfs = RunBfsGts(engine, source);
    GTS_CHECK(bfs.ok());
    return bfs->report.metrics.cache_hits;
  };

  const uint64_t default_hits = hits_with(PageOrderKind::kSpThenLp);
  const uint64_t affinity_hits = hits_with(PageOrderKind::kCacheAffinity);
  EXPECT_GT(affinity_hits, default_hits);
}

TEST(DispatchEffectTest, SequentialMergeCutsScanIoTime) {
  Fixture f;
  auto scan_with = [&](io::IoReorderKind reorder, int depth) {
    auto store = MakeSsdStore(&f.paged, 2, /*buffer_capacity=*/256 * kKiB);
    GtsOptions opts;
    opts.io.reorder = reorder;
    opts.io.queue_depth = depth;
    GtsEngine engine(&f.paged, store.get(), f.Machine(), opts);
    auto pr = RunPageRankGts(engine, {.iterations = 1});
    GTS_CHECK(pr.ok());
    return pr->report.metrics;
  };

  const RunMetrics base = scan_with(io::IoReorderKind::kFifo, 1);
  const RunMetrics merged =
      scan_with(io::IoReorderKind::kSequentialMerge, 4);
  EXPECT_EQ(base.io_queue.merged_bursts, 0u);
  // A scan in SP-then-LP order fetches each device's stripe in ascending
  // offset order: nearly every read continues the previous one, so the
  // seq-merge scheduler charges it SequentialReadCost.
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

/// min_active_edges = 1 admits only frontier pages holding at least one
/// active *edge*. A page whose activations were all sink vertices (weight
/// 0 in the degree-weighted PidSet) expands nothing, so skipping it must
/// change no result and no WA traffic -- the correctness guard for the
/// admission cut.
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

  auto run_with = [&](uint32_t min_edges) {
    GtsOptions opts;
    opts.dispatch.min_active_edges = min_edges;
    GtsEngine engine(&paged, store.get(), f.Machine(), opts);
    auto bfs = RunBfsGts(engine, source);
    GTS_CHECK(bfs.ok()) << bfs.status().ToString();
    return std::make_pair(bfs->levels, bfs->report.metrics);
  };

  const auto [base_levels, base_metrics] = run_with(0);
  const auto [cut_levels, cut_metrics] = run_with(1);

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
  opts.dispatch.min_active_edges = 1;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
  auto bfs = RunBfsGts(engine, f.Source());
  ASSERT_TRUE(bfs.ok());
  const auto& snapshot = bfs->report.snapshot;
  ASSERT_TRUE(snapshot.count("dispatch.skipped_pages"));
  EXPECT_EQ(snapshot.at("dispatch.skipped_pages").count,
            bfs->report.metrics.pages_skipped);
}

/// Full scans have no frontier, so the threshold must be a no-op there.
TEST(DispatchAdmissionTest, ThresholdIgnoredOnFullScans) {
  Fixture f;
  GtsOptions opts;
  opts.dispatch.min_active_edges = 1;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(), opts);
  auto pr = RunPageRankGts(engine, {.iterations = 1});
  ASSERT_TRUE(pr.ok());
  EXPECT_EQ(pr->report.metrics.pages_skipped, 0u);
}

TEST(DispatchMetricsTest, DispatchCountersAppearInSnapshot) {
  Fixture f;
  GtsOptions opts;
  opts.dispatch.partition = GpuPartitionKind::kDegreeBalanced;
  GtsEngine engine(&f.paged, f.store.get(), f.Machine(2), opts);
  auto pr = RunPageRankGts(engine, {.iterations = 1});
  ASSERT_TRUE(pr.ok());
  const auto& snapshot = pr->report.snapshot;
  ASSERT_TRUE(snapshot.count("dispatch.passes"));
  EXPECT_EQ(snapshot.at("dispatch.passes").count, 1u);
  EXPECT_EQ(snapshot.at("dispatch.pages_ordered").count,
            f.paged.num_pages());
  EXPECT_TRUE(snapshot.count("dispatch.partition.planned_pages"));
  EXPECT_TRUE(snapshot.count("dispatch.partition.imbalance"));
}

/// Degree-balanced placement must not change what a scan computes, only
/// where pages run.
TEST(DispatchEquivalenceTest, DegreeBalancedScanMatchesRoundRobin) {
  Fixture f;
  auto ranks_with = [&](GpuPartitionKind partition) {
    GtsOptions opts;
    opts.dispatch.partition = partition;
    GtsEngine engine(&f.paged, f.store.get(), f.Machine(2), opts);
    auto pr = RunPageRankGts(engine, {.iterations = 2});
    GTS_CHECK(pr.ok());
    return pr->ranks;
  };
  const auto rr = ranks_with(GpuPartitionKind::kRoundRobin);
  const auto balanced = ranks_with(GpuPartitionKind::kDegreeBalanced);
  ASSERT_EQ(rr.size(), balanced.size());
  for (size_t v = 0; v < rr.size(); ++v) {
    // Placement changes which GPU's WA replica accumulates each page's
    // contributions, but the merged result must agree to float precision.
    EXPECT_NEAR(rr[v], balanced[v], 1e-6f) << v;
  }
}

}  // namespace
}  // namespace gts
