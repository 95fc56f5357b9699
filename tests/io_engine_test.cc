// The gts::io contracts: the in-device scheduler's pick/merge rules, the
// DeviceQueue's cost and wait accounting, slot-bound backpressure, and --
// at engine level -- the invariants the queues must never break: queue
// depth and reorder mode change the simulated schedule, never what the
// kernels compute, and depth with sequential merge strictly cuts device
// time on a scattered read order.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/wcc.h"
#include "analysis/event_log.h"
#include "analysis/race_report.h"
#include "analysis/schedule_validator.h"
#include "common/units.h"
#include "core/engine.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "io/device_queue.h"
#include "io/io_engine.h"
#include "io/io_scheduler.h"
#include "storage/page_builder.h"

namespace gts {
namespace io {
namespace {

IoRequest Req(PageId pid, uint64_t offset, uint64_t length = 1024) {
  IoRequest req;
  req.pid = pid;
  req.offset = offset;
  req.length = length;
  return req;
}

// ------------------------------------------------------- scheduler units

TEST(IoSchedulerTest, FifoAlwaysPicksFront) {
  std::deque<IoRequest> queue = {Req(0, 4096), Req(1, 0), Req(2, 2048)};
  EXPECT_EQ(PickNextRequest(IoReorderKind::kFifo, queue, kNoHeadOffset), 0u);
  EXPECT_EQ(PickNextRequest(IoReorderKind::kFifo, queue, 2048), 0u);
}

TEST(IoSchedulerTest, ElevatorSweepsUpFromHeadAndWraps) {
  std::deque<IoRequest> queue = {Req(0, 4096), Req(1, 0), Req(2, 2048)};
  // Head at 1024: 2048 is the lowest offset at-or-after it.
  EXPECT_EQ(PickNextRequest(IoReorderKind::kElevator, queue, 1024), 2u);
  // Head past every request: wrap to the lowest offset overall.
  EXPECT_EQ(PickNextRequest(IoReorderKind::kElevator, queue, 8192), 1u);
  // Start of a pass: the sweep begins from offset 0.
  EXPECT_EQ(
      PickNextRequest(IoReorderKind::kElevator, queue, kNoHeadOffset), 1u);
}

TEST(IoSchedulerTest, ElevatorBreaksOffsetTiesBySubmissionOrder) {
  std::deque<IoRequest> queue = {Req(0, 2048), Req(1, 2048)};
  EXPECT_EQ(PickNextRequest(IoReorderKind::kElevator, queue, 0), 0u);
}

TEST(IoSchedulerTest, MergeRequiresSeqMergeKindAndExactHeadContinuation) {
  const IoRequest req = Req(7, 2048, 1024);
  EXPECT_TRUE(
      MergesWithHead(IoReorderKind::kSequentialMerge, req, 2048));
  // Off-by-anything is a seek, not a continuation.
  EXPECT_FALSE(
      MergesWithHead(IoReorderKind::kSequentialMerge, req, 1024));
  // Nothing merges before the first read positioned the head.
  EXPECT_FALSE(
      MergesWithHead(IoReorderKind::kSequentialMerge, req, kNoHeadOffset));
  // Elevator reorders but never discounts.
  EXPECT_FALSE(MergesWithHead(IoReorderKind::kElevator, req, 2048));
  EXPECT_FALSE(MergesWithHead(IoReorderKind::kFifo, req, 2048));
}

// ------------------------------------------------------ DeviceQueue units

IoOptions Opts(int depth, IoReorderKind reorder, int slots = 0) {
  IoOptions o;
  o.queue_depth = depth;
  o.reorder = reorder;
  o.inflight_slots = slots;
  return o;
}

TEST(DeviceQueueTest, DepthOneFifoPaysFullCostWithZeroWait) {
  const DeviceTimingParams hdd = DeviceTimingParams::Hdd();
  DeviceQueue queue(0, hdd, Opts(1, IoReorderKind::kFifo));
  for (PageId pid = 0; pid < 3; ++pid) {
    ASSERT_TRUE(queue.Submit(pid, pid * 1024, 1024).ok());
    const IoIssue issue = queue.IssueNext();
    queue.NoteConsumed();
    EXPECT_EQ(issue.request.pid, pid);
    EXPECT_DOUBLE_EQ(issue.cost, hdd.ReadCost(1024));
    // Submitted at the current clock, issued immediately: the depth-1
    // FIFO wait is identically zero -- the byte-identity precondition.
    EXPECT_DOUBLE_EQ(issue.queue_wait, 0.0);
    EXPECT_FALSE(issue.merged);
    EXPECT_FALSE(issue.reordered);
  }
}

TEST(DeviceQueueTest, SequentialMergeChargesTransferOnlyCost) {
  const DeviceTimingParams hdd = DeviceTimingParams::Hdd();
  DeviceQueue queue(0, hdd, Opts(4, IoReorderKind::kSequentialMerge));
  // Submitted backwards; the C-SCAN sweep issues 0,1024,2048,3072 and the
  // last three each continue the head exactly.
  for (int i = 3; i >= 0; --i) {
    ASSERT_TRUE(
        queue.Submit(static_cast<PageId>(i), i * 1024u, 1024).ok());
  }
  double total = 0.0;
  uint64_t expected_offset = 0;
  for (int i = 0; i < 4; ++i) {
    const IoIssue issue = queue.IssueNext();
    queue.NoteConsumed();
    EXPECT_EQ(issue.request.offset, expected_offset);
    expected_offset += 1024;
    EXPECT_EQ(issue.merged, i > 0);
    total += issue.cost;
  }
  EXPECT_DOUBLE_EQ(
      total, hdd.ReadCost(1024) + 3 * hdd.SequentialReadCost(1024));
}

TEST(DeviceQueueTest, QueueWaitIsBusyClockSinceSubmission) {
  const DeviceTimingParams hdd = DeviceTimingParams::Hdd();
  DeviceQueue queue(0, hdd, Opts(2, IoReorderKind::kFifo));
  ASSERT_TRUE(queue.Submit(0, 0, 1024).ok());
  ASSERT_TRUE(queue.Submit(1, 1024, 1024).ok());
  const IoIssue first = queue.IssueNext();
  EXPECT_DOUBLE_EQ(first.queue_wait, 0.0);
  const IoIssue second = queue.IssueNext();
  // The second request sat in the queue for the first one's service time.
  EXPECT_DOUBLE_EQ(second.queue_wait, first.cost);
}

TEST(DeviceQueueTest, ElevatorReportsReorderWins) {
  DeviceQueue queue(0, DeviceTimingParams::Hdd(),
                    Opts(2, IoReorderKind::kElevator));
  ASSERT_TRUE(queue.Submit(0, 4096, 1024).ok());
  ASSERT_TRUE(queue.Submit(1, 0, 1024).ok());
  const IoIssue issue = queue.IssueNext();
  EXPECT_EQ(issue.request.pid, 1u);  // lower offset overtakes
  EXPECT_TRUE(issue.reordered);
  EXPECT_EQ(issue.queue_depth_at_issue, 2);
}

TEST(DeviceQueueTest, SubmitHitsSlotBoundUnlessForced) {
  // depth 2, slots 2: both slots fill without draining.
  DeviceQueue queue(3, DeviceTimingParams::Hdd(),
                    Opts(2, IoReorderKind::kFifo, /*slots=*/2));
  ASSERT_TRUE(queue.Submit(0, 0, 1024).ok());
  ASSERT_TRUE(queue.Submit(1, 1024, 1024).ok());
  const Status rejected = queue.Submit(2, 2048, 1024);
  EXPECT_TRUE(rejected.IsResourceExhausted()) << rejected.ToString();
  // The demand path must always get through.
  EXPECT_TRUE(queue.Submit(2, 2048, 1024, /*force=*/true).ok());
  // Consuming a completion frees its slot for the next submission.
  queue.IssueNext();
  queue.NoteConsumed();
  queue.IssueNext();
  queue.NoteConsumed();
  queue.IssueNext();
  queue.NoteConsumed();
  EXPECT_TRUE(queue.Submit(4, 4096, 1024).ok());
}

TEST(DeviceQueueTest, ResetPassClearsClockHeadAndQueue) {
  const DeviceTimingParams hdd = DeviceTimingParams::Hdd();
  DeviceQueue queue(0, hdd, Opts(2, IoReorderKind::kSequentialMerge));
  ASSERT_TRUE(queue.Submit(0, 0, 1024).ok());
  queue.IssueNext();
  queue.NoteConsumed();
  queue.ResetPass();
  EXPECT_TRUE(queue.Empty());
  // Head position must not leak a merge discount across a barrier: the
  // continuation of the pre-reset read pays the full cost again.
  ASSERT_TRUE(queue.Submit(1, 1024, 1024).ok());
  const IoIssue issue = queue.IssueNext();
  EXPECT_FALSE(issue.merged);
  EXPECT_DOUBLE_EQ(issue.cost, hdd.ReadCost(1024));
  EXPECT_DOUBLE_EQ(issue.queue_wait, 0.0);
}

// -------------------------------------------------------- IoEngine units

struct IoFixture {
  EdgeList edges;
  CsrGraph csr;
  PagedGraph paged;

  // Scale 12 yields ~52 pages (26 per device on a two-device store):
  // enough that a depth-8 window genuinely reorders, parks and evicts.
  explicit IoFixture(int scale = 12, uint64_t seed = 31) {
    RmatParams p;
    p.scale = scale;
    p.edge_factor = 8;
    p.seed = seed;
    edges = std::move(GenerateRmat(p)).ValueOrDie();
    csr = CsrGraph::FromEdgeList(edges);
    paged = std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
  }

  std::vector<PageId> AllPages() const {
    std::vector<PageId> pids(paged.num_pages());
    std::iota(pids.begin(), pids.end(), 0);
    return pids;
  }

  /// Deterministic LCG shuffle: a scattered-but-reproducible demand order
  /// (std::shuffle's permutation is implementation-defined; this is not).
  std::vector<PageId> ShuffledPages() const {
    std::vector<PageId> pids = AllPages();
    uint64_t state = 0x2545F4914F6CDD1Dull;
    for (size_t i = pids.size(); i > 1; --i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(pids[i - 1], pids[(state >> 33) % i]);
    }
    return pids;
  }
};

/// Drives one full plan->acquire cycle in `order` and returns the summed
/// device cost. Every page's bytes are verified against the graph.
double DrainInOrder(const IoFixture& f, PageStore* store, IoOptions options,
                    const std::vector<PageId>& order, IoStats* stats_out) {
  IoEngine engine(&f.paged, store, options,
                  [](const gpu::TimelineOp&) { return gpu::kNoOp; },
                  /*registry=*/nullptr);
  engine.BeginPass(order);
  double total = 0.0;
  for (PageId pid : order) {
    auto fetched = engine.Acquire(pid);
    GTS_CHECK(fetched.ok()) << fetched.status().ToString();
    total += fetched->io_cost;
    const auto& expected = f.paged.page_bytes(pid);
    GTS_CHECK(std::equal(expected.begin(), expected.end(), fetched->data))
        << "page " << pid << " bytes corrupted through the io engine";
  }
  if (stats_out != nullptr) *stats_out = engine.stats();
  return total;
}

TEST(IoEngineTest, DepthWithSeqMergeStrictlyCutsScatteredReadTime) {
  IoFixture f;
  const std::vector<PageId> order = f.ShuffledPages();
  auto cost_with = [&](IoOptions options, IoStats* stats) {
    // Fresh store per config: an empty MMBuf, so every page is planned.
    auto store = MakeHddStore(&f.paged, 2, /*buffer_capacity=*/~uint64_t{0});
    return DrainInOrder(f, store.get(), options, order, stats);
  };

  IoStats base_stats, merged_stats;
  const double base =
      cost_with(Opts(1, IoReorderKind::kFifo), &base_stats);
  const double merged =
      cost_with(Opts(4, IoReorderKind::kSequentialMerge), &merged_stats);

  // Depth 1 has no lookahead: nothing merges on a shuffled order.
  EXPECT_EQ(base_stats.merged_bursts, 0u);
  EXPECT_EQ(base_stats.reorder_wins, 0u);
  // The depth-4 window reassembles sequential runs the shuffle scattered.
  EXPECT_GT(merged_stats.merged_bursts, 0u);
  EXPECT_GT(merged_stats.reorder_wins, 0u);
  EXPECT_LT(merged, base);
  // Same reads either way -- the discount comes from merging, not skipping.
  EXPECT_EQ(merged_stats.completed, base_stats.completed);
  EXPECT_EQ(merged_stats.demand_fetches, 0u);
  EXPECT_EQ(base_stats.demand_fetches, 0u);
}

TEST(IoEngineTest, ElevatorReordersWithoutChangingTotalCost) {
  IoFixture f;
  const std::vector<PageId> order = f.ShuffledPages();
  auto cost_with = [&](IoOptions options, IoStats* stats) {
    auto store = MakeHddStore(&f.paged, 2, ~uint64_t{0});
    return DrainInOrder(f, store.get(), options, order, stats);
  };
  IoStats fifo_stats, elev_stats;
  const double fifo = cost_with(Opts(8, IoReorderKind::kFifo), &fifo_stats);
  const double elev =
      cost_with(Opts(8, IoReorderKind::kElevator), &elev_stats);
  // The elevator changes order (head travel is not modeled separately),
  // never the per-request price.
  EXPECT_DOUBLE_EQ(elev, fifo);
  EXPECT_EQ(fifo_stats.reorder_wins, 0u);
  EXPECT_GT(elev_stats.reorder_wins, 0u);
}

TEST(IoEngineTest, SlotBoundBackpressuresPrefetchNotDemand) {
  IoFixture f;
  const std::vector<PageId> order = f.ShuffledPages();
  auto store = MakeHddStore(&f.paged, 2, ~uint64_t{0});
  // slots == depth: every completion parked ahead of demand keeps a slot,
  // so the reordering scheduler starves the prefetcher by design.
  IoStats stats;
  DrainInOrder(f, store.get(),
               Opts(8, IoReorderKind::kSequentialMerge, /*slots=*/8), order,
               &stats);
  EXPECT_GT(stats.backpressure, 0u);
  // Every page was still delivered (checked byte-for-byte in the drain).
  EXPECT_EQ(stats.completed + stats.demand_fetches,
            f.paged.num_pages());
}

TEST(IoEngineTest, PrefetchEvictedFromTinyBufferFallsBackToDemand) {
  IoFixture f;
  const std::vector<PageId> order = f.ShuffledPages();
  // MMBuf holds two pages; a depth-8 window stages far ahead of demand,
  // so staged pages are evicted before their Acquire.
  const uint64_t page = f.paged.config().page_size;
  auto store = MakeHddStore(&f.paged, 2, 2 * page);
  IoStats stats;
  DrainInOrder(f, store.get(), Opts(8, IoReorderKind::kSequentialMerge),
               order, &stats);
  EXPECT_GT(stats.prefetch_evictions, 0u);
  EXPECT_GT(stats.demand_fetches, 0u);
}

TEST(IoEngineTest, ResidentPagesAreNeverPlanned) {
  IoFixture f;
  auto store = MakeHddStore(&f.paged, 2, ~uint64_t{0});
  const std::vector<PageId> order = f.AllPages();
  {
    IoStats stats;
    DrainInOrder(f, store.get(), Opts(4, IoReorderKind::kFifo), order,
                 &stats);
    EXPECT_EQ(stats.completed, f.paged.num_pages());
  }
  // Second pass over the same store: everything is an MMBuf hit.
  IoEngine engine(&f.paged, store.get(), Opts(1, IoReorderKind::kFifo),
                  [](const gpu::TimelineOp&) { return gpu::kNoOp; }, nullptr);
  engine.BeginPass(order);
  for (PageId pid : order) {
    auto fetched = engine.Acquire(pid);
    ASSERT_TRUE(fetched.ok());
    EXPECT_TRUE(fetched->buffer_hit) << "page " << pid;
  }
  EXPECT_EQ(engine.stats().submitted, 0u);
  EXPECT_EQ(engine.stats().demand_fetches, 0u);
}

/// An unplanned miss (the plan-time residency snapshot said "in MMBuf",
/// the page was evicted before its Acquire) must come back through the
/// device queue like any planned read -- force-submitted, so it carries a
/// full submit -> issue -> deliver sequence -- not through the synchronous
/// bypass, which would dodge the queue's pricing and the R7 audit.
TEST(IoEngineTest, UnplannedMissIsQueueRoutedAndLogged) {
  IoFixture f;
  const std::vector<PageId> order = f.ShuffledPages();
  const uint64_t page = f.paged.config().page_size;
  auto store = MakeHddStore(&f.paged, 2, 2 * page);
  // Pass 1 warms the tiny MMBuf: it ends holding the last pages delivered,
  // which sit late in `order`.
  DrainInOrder(f, store.get(), Opts(4, IoReorderKind::kFifo), order, nullptr);

  // Pass 2 over the warm store: the resident tail passes the plan-time
  // residency filter (never planned), is evicted long before its own
  // Acquire by the pages staged ahead of it, and must be demand-fetched.
  IoEngine engine(&f.paged, store.get(), Opts(4, IoReorderKind::kFifo),
                  [](const gpu::TimelineOp&) { return gpu::kNoOp; }, nullptr);
  analysis::IoEventLog log;
  engine.BindEventLog(&log);
  engine.BeginPass(order);
  for (PageId pid : order) {
    auto fetched = engine.Acquire(pid);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    const auto& expected = f.paged.page_bytes(pid);
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), fetched->data))
        << "page " << pid;
  }
  const IoStats& stats = engine.stats();
  EXPECT_GT(stats.demand_fetches, 0u);
  // Queue-routed demand is submitted and completed like planned traffic,
  // so the two counters agree at end of pass.
  EXPECT_EQ(stats.submitted, stats.completed);
  // ...and the io-order validator sees a well-formed lifecycle for every
  // request, demand included.
  analysis::RaceReport report;
  analysis::ScheduleValidator validator;
  validator.CheckIoEvents(log.Take(), &report);
  EXPECT_EQ(report.violations_detected, 0u) << report.ToString();
}

TEST(IoOptionsTest, ValidateRejectsBadDepthAndSlots) {
  EXPECT_TRUE(IoOptions{}.Validate().ok());
  IoOptions bad_depth;
  bad_depth.queue_depth = 0;
  EXPECT_FALSE(bad_depth.Validate().ok());
  IoOptions bad_slots;
  bad_slots.queue_depth = 4;
  bad_slots.inflight_slots = 2;  // below the queue depth
  EXPECT_FALSE(bad_slots.Validate().ok());
  IoOptions auto_slots;
  auto_slots.queue_depth = 4;
  EXPECT_EQ(auto_slots.ResolvedSlots(), 8);
}

// --------------------------------------------- engine-level invariants

struct EngineFixture : IoFixture {
  EngineFixture() : IoFixture(10, 5) {}

  MachineConfig Machine() const {
    MachineConfig m = MachineConfig::PaperScaled(1);
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

/// Queue depth and reorder mode are schedule knobs: BFS levels and WCC
/// labels must stay bit-identical across every combination.
TEST(IoEngineInvarianceTest, BfsAndWccIdenticalAcrossDepthsAndModes) {
  EngineFixture f;
  const VertexId source = f.Source();

  std::vector<uint16_t> bfs_reference;
  std::vector<uint64_t> wcc_reference;
  for (int depth : {1, 4, 16}) {
    for (auto reorder :
         {IoReorderKind::kFifo, IoReorderKind::kElevator,
          IoReorderKind::kSequentialMerge}) {
      GtsOptions opts;
      opts.io.queue_depth = depth;
      opts.io.reorder = reorder;
      // Frontier-density order scatters device offsets, so deeper queues
      // genuinely reorder; a small MMBuf adds eviction pressure.
      opts.dispatch.order = PageOrderKind::kFrontierDensity;
      auto store = MakeSsdStore(&f.paged, 2, /*buffer_capacity=*/256 * kKiB);
      GtsEngine engine(&f.paged, store.get(), f.Machine(), opts);

      auto bfs = RunBfsGts(engine, source);
      ASSERT_TRUE(bfs.ok()) << "depth " << depth;
      auto wcc = RunWccGts(engine);
      ASSERT_TRUE(wcc.ok()) << "depth " << depth;

      if (bfs_reference.empty()) {
        bfs_reference = bfs->levels;
        wcc_reference = wcc->labels;
      } else {
        EXPECT_EQ(bfs->levels, bfs_reference)
            << "depth " << depth << " mode "
            << IoReorderKindName(reorder);
        EXPECT_EQ(wcc->labels, wcc_reference)
            << "depth " << depth << " mode "
            << IoReorderKindName(reorder);
      }
    }
  }
}

TEST(IoEngineInvarianceTest, IoCountersSurfaceInRunReport) {
  EngineFixture f;
  GtsOptions opts;
  opts.io.queue_depth = 4;
  opts.io.reorder = IoReorderKind::kSequentialMerge;
  auto store = MakeSsdStore(&f.paged, 2, 256 * kKiB);
  GtsEngine engine(&f.paged, store.get(), f.Machine(), opts);
  auto bfs = RunBfsGts(engine, f.Source());
  ASSERT_TRUE(bfs.ok());
  const auto& metrics = bfs->report.metrics;
  EXPECT_GT(metrics.io_queue.submitted, 0u);
  EXPECT_GT(metrics.io_queue.completed, 0u);
  const auto& snapshot = bfs->report.snapshot;
  for (const char* name :
       {"io.submitted", "io.completed", "io.merged_bursts",
        "io.reorder_wins", "io.backpressure", "io.demand_fetches",
        "io.spill_writes"}) {
    EXPECT_TRUE(snapshot.count(name)) << name;
  }
}

/// io.wa_snapshot spills each pass's downloaded WA through the device
/// write path: pure persistence, so algorithm results are untouched, the
/// writes are priced onto the storage devices in the replayed schedule,
/// and the spilled bytes never collide with the striped page region.
TEST(IoEngineInvarianceTest, WaSnapshotWritesThroughQueueWithoutChangingResults) {
  EngineFixture f;
  const VertexId source = f.Source();
  auto run_with = [&](bool snapshot) {
    GtsOptions opts;
    opts.io.queue_depth = 4;
    opts.io.reorder = IoReorderKind::kSequentialMerge;
    opts.io.wa_snapshot = snapshot;
    auto store = MakeSsdStore(&f.paged, 2, 256 * kKiB);
    GtsEngine engine(&f.paged, store.get(), f.Machine(), opts);
    auto bfs = RunBfsGts(engine, source);
    GTS_CHECK(bfs.ok()) << bfs.status().ToString();
    return std::make_pair(bfs->levels, bfs->report);
  };
  const auto [base_levels, base_report] = run_with(false);
  const auto [snap_levels, snap_report] = run_with(true);
  EXPECT_EQ(snap_levels, base_levels);
  EXPECT_EQ(base_report.metrics.io_queue.spill_writes, 0u);
  EXPECT_GT(snap_report.metrics.io_queue.spill_writes, 0u);
  // The spill occupies the storage devices in simulated time.
  EXPECT_GT(snap_report.metrics.storage_busy,
            base_report.metrics.storage_busy);
  // Spills must not confuse the validator: writes carry no page id, so
  // the pid-keyed io-order rule (R7) sees only the read lifecycles.
  EXPECT_EQ(snap_report.metrics.analysis.violations_detected, 0u)
      << snap_report.metrics.analysis.ToString();
}

}  // namespace
}  // namespace io
}  // namespace gts
