// The gts::io contracts: every page read is recorded when demanded, in
// demand order, at the device's full ReadCost with no queue wait;
// io.merge_sequential discounts exactly the reads that continue their
// device's head within a pass; a read that refills an MMBuf slot waits
// for every op of the pass that read the slot's previous page; a hit on
// a page read earlier in the pass depends on that read; writes never
// merge and move the head; and
// -- at engine level -- sequential merging changes the simulated
// schedule, never what the kernels compute, and ingest delta records are
// priced storage writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/reference.h"
#include "algorithms/wcc.h"
#include "common/units.h"
#include "core/engine.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "ingest/edge_stream.h"
#include "io/io_engine.h"
#include "storage/page_builder.h"

namespace gts {
namespace io {
namespace {

struct IoFixture {
  EdgeList edges;
  CsrGraph csr;
  PagedGraph paged;

  // Scale 12 yields ~52 pages (26 per device on a two-device store).
  explicit IoFixture(int scale = 12, uint64_t seed = 31) {
    RmatParams p;
    p.scale = scale;
    p.edge_factor = 8;
    p.seed = seed;
    edges = std::move(GenerateRmat(p)).ValueOrDie();
    csr = CsrGraph::FromEdgeList(edges);
    paged = std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
  }

  uint64_t page_size() const { return paged.config().page_size; }

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

/// Collects the ops an IoEngine records, standing in for the engine's
/// schedule recorder.
struct OpLog {
  std::vector<gpu::TimelineOp> ops;

  IoEngine::RecordFn Fn() {
    return [this](const gpu::TimelineOp& op) {
      ops.push_back(op);
      return static_cast<gpu::OpIndex>(ops.size() - 1);
    };
  }
};

IoOptions MergeSequential() {
  IoOptions options;
  options.merge_sequential = true;
  return options;
}

/// Acquires every page of `order` in one pass and returns the engine's
/// counters. Every page's bytes are verified against the graph.
IoStats DrainInOrder(const IoFixture& f, PageStore* store, IoOptions options,
                     const std::vector<PageId>& order, OpLog* log) {
  IoEngine engine(&f.paged, store, options,
                  log != nullptr ? log->Fn() : IoEngine::RecordFn{},
                  /*registry=*/nullptr);
  engine.BeginPass();
  for (PageId pid : order) {
    auto fetched = engine.Acquire(pid);
    GTS_CHECK(fetched.ok()) << fetched.status().ToString();
    const auto& expected = f.paged.page_bytes(pid);
    GTS_CHECK(std::equal(expected.begin(), expected.end(), fetched->data))
        << "page " << pid << " bytes corrupted through the io engine";
  }
  return engine.stats();
}

// -------------------------------------------------------- IoEngine units

TEST(IoEngineTest, ReadsAreRecordedInDemandOrderAtFullCost) {
  IoFixture f;
  const std::vector<PageId> order = f.ShuffledPages();
  auto store = MakeHddStore(&f.paged, 2, /*buffer_capacity=*/~uint64_t{0});
  const DeviceTimingParams& hdd = store->device(0).timing();
  OpLog log;
  const IoStats stats = DrainInOrder(f, store.get(), IoOptions{}, order, &log);

  ASSERT_EQ(log.ops.size(), order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    const gpu::TimelineOp& op = log.ops[i];
    EXPECT_EQ(op.kind, gpu::OpKind::kStorageFetch);
    EXPECT_EQ(op.page, order[i]) << "op " << i;
    EXPECT_EQ(op.resource.index, static_cast<int>(order[i] % 2));
    EXPECT_EQ(op.bytes, f.page_size());
    EXPECT_DOUBLE_EQ(op.duration, hdd.ReadCost(f.page_size()));
    EXPECT_DOUBLE_EQ(op.queue_wait, 0.0);
    EXPECT_FALSE(op.merged);
  }
  EXPECT_EQ(stats.completed, order.size());
  EXPECT_EQ(stats.merged_bursts, 0u);
}

TEST(IoEngineTest, MergeSequentialChargesOnlyHeadContinuations) {
  IoFixture f;
  auto store = MakeHddStore(&f.paged, 2, ~uint64_t{0});
  const DeviceTimingParams& hdd = store->device(0).timing();
  OpLog log;
  IoEngine engine(&f.paged, store.get(), MergeSequential(), log.Fn(),
                  nullptr);
  // Page j sits at page offset j / 2 on device j % 2, and each device
  // keeps its own head: 2 and 3 continue 0 and 1, 6 seeks past 4, 8
  // continues 6. After BeginPass, 10 continues 8 on the device but opens
  // the pass's first burst; 12 continues it.
  const std::vector<std::pair<PageId, bool>> pass1 = {
      {0, false}, {1, false}, {2, true}, {3, true}, {6, false}, {8, true}};
  const std::vector<std::pair<PageId, bool>> pass2 = {{10, false},
                                                      {12, true}};
  std::vector<std::pair<PageId, bool>> expected;
  for (const auto* pass : {&pass1, &pass2}) {
    engine.BeginPass();
    for (const auto& [pid, merged] : *pass) {
      ASSERT_TRUE(engine.Acquire(pid).ok());
      expected.emplace_back(pid, merged);
    }
  }

  ASSERT_EQ(log.ops.size(), expected.size());
  uint64_t merged_reads = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    const auto& [pid, merged] = expected[i];
    EXPECT_EQ(log.ops[i].page, pid);
    EXPECT_EQ(log.ops[i].merged, merged) << "page " << pid;
    EXPECT_DOUBLE_EQ(log.ops[i].duration,
                     merged ? hdd.SequentialReadCost(f.page_size())
                            : hdd.ReadCost(f.page_size()))
        << "page " << pid;
    merged_reads += merged ? 1 : 0;
  }
  EXPECT_EQ(engine.stats().completed, expected.size());
  EXPECT_EQ(engine.stats().merged_bursts, merged_reads);
}

TEST(IoEngineTest, WritesNeverMergeAndMoveTheHead) {
  IoFixture f;
  auto store = MakeHddStore(&f.paged, 2, ~uint64_t{0});
  const DeviceTimingParams& hdd = store->device(0).timing();
  const uint64_t page = f.page_size();
  OpLog log;
  IoEngine engine(&f.paged, store.get(), MergeSequential(), log.Fn(),
                  nullptr);
  engine.BeginPass();

  // Device 0: read page 0, then rewrite page 2, which starts at the head.
  ASSERT_TRUE(engine.Acquire(0).ok());
  const std::vector<uint8_t> image = f.paged.page_bytes(2);
  ASSERT_TRUE(engine.RewritePage(2, image.data(), image.size()).ok());
  // The rewrite moved the head past page 2, so page 4 continues it.
  auto page4 = engine.Acquire(4);
  ASSERT_TRUE(page4.ok());
  // Two back-to-back spills past the page region, the second continuing
  // the first; then page 6 no longer continues the head.
  const uint64_t spill = store->DevicePageBytes(0);
  const std::vector<uint8_t> bytes(page, 0xAB);
  auto spill1 = engine.Write(0, spill, bytes.data(), page);
  ASSERT_TRUE(spill1.ok());
  ASSERT_TRUE(engine.Write(0, spill + page, bytes.data(), page).ok());
  ASSERT_TRUE(engine.Acquire(6).ok());

  ASSERT_EQ(log.ops.size(), 6u);
  const gpu::TimelineOp& rewrite = log.ops[1];
  EXPECT_EQ(rewrite.kind, gpu::OpKind::kStorageWrite);
  EXPECT_EQ(rewrite.page, 2u);
  EXPECT_FALSE(rewrite.merged);
  EXPECT_DOUBLE_EQ(rewrite.duration, hdd.WriteCost(page));
  EXPECT_TRUE(log.ops[2].merged);
  EXPECT_DOUBLE_EQ(log.ops[2].duration, hdd.SequentialReadCost(page));
  for (size_t i : {3u, 4u}) {
    const gpu::TimelineOp& write = log.ops[i];
    EXPECT_EQ(write.kind, gpu::OpKind::kStorageWrite);
    EXPECT_EQ(write.page, kInvalidPageId);
    EXPECT_EQ(write.resource.index, 0);
    EXPECT_FALSE(write.merged);
    EXPECT_DOUBLE_EQ(write.duration, hdd.WriteCost(page));
  }
  EXPECT_EQ(*spill1, 3u);
  EXPECT_FALSE(log.ops[5].merged);
  EXPECT_DOUBLE_EQ(log.ops[5].duration, hdd.ReadCost(page));

  const IoStats& stats = engine.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.merged_bursts, 1u);
  EXPECT_EQ(stats.spill_writes, 2u);
  EXPECT_EQ(stats.page_rewrites, 1u);
}

TEST(IoEngineTest, WriteAndRewriteRejectTargetsPastTheStore) {
  IoFixture f;
  auto store = MakeHddStore(&f.paged, 2, ~uint64_t{0});
  OpLog log;
  IoEngine engine(&f.paged, store.get(), IoOptions{}, log.Fn(), nullptr);
  const std::vector<uint8_t> bytes(f.page_size(), 0);

  const auto wrote =
      engine.Write(/*device=*/2, store->DevicePageBytes(0), bytes.data(),
                   bytes.size());
  EXPECT_EQ(wrote.status().code(), StatusCode::kInvalidArgument)
      << wrote.status().ToString();
  const auto rewrote =
      engine.RewritePage(f.paged.num_pages(), bytes.data(), bytes.size());
  EXPECT_EQ(rewrote.status().code(), StatusCode::kInvalidArgument)
      << rewrote.status().ToString();

  EXPECT_TRUE(log.ops.empty());
  EXPECT_EQ(engine.stats().spill_writes, 0u);
  EXPECT_EQ(engine.stats().page_rewrites, 0u);
}

/// Pages already in MMBuf are buffer hits: they never reach a device, so
/// nothing is recorded or counted for them.
TEST(IoEngineTest, ResidentPagesAreNeverPlanned) {
  IoFixture f;
  auto store = MakeHddStore(&f.paged, 2, ~uint64_t{0});
  const std::vector<PageId> order = f.AllPages();
  EXPECT_EQ(DrainInOrder(f, store.get(), IoOptions{}, order, nullptr).completed,
            f.paged.num_pages());
  // Second pass over the same store: everything is an MMBuf hit.
  OpLog log;
  IoEngine engine(&f.paged, store.get(), IoOptions{}, log.Fn(), nullptr);
  engine.BeginPass();
  for (PageId pid : order) {
    auto fetched = engine.Acquire(pid);
    ASSERT_TRUE(fetched.ok());
    EXPECT_TRUE(fetched->buffer_hit) << "page " << pid;
    EXPECT_EQ(fetched->fetch_op, gpu::kNoOp);
  }
  EXPECT_TRUE(log.ops.empty());
  EXPECT_EQ(engine.stats().completed, 0u);
}

/// The reader ops a recorded op waits for, through zero-cost joins.
std::vector<gpu::OpIndex> Waits(const OpLog& log, gpu::OpIndex op) {
  std::vector<gpu::OpIndex> out;
  for (gpu::OpIndex dep : {log.ops[op].dep0, log.ops[op].dep1}) {
    if (dep == gpu::kNoOp) continue;
    if (log.ops[dep].kind == gpu::OpKind::kHostCompute) {
      EXPECT_DOUBLE_EQ(log.ops[dep].duration, 0.0);
      for (gpu::OpIndex inner : Waits(log, dep)) out.push_back(inner);
    } else {
      out.push_back(dep);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Records `n` stand-in reader ops of `pid` (an H2D per GPU under
/// Strategy-S) and reports each to the io engine.
std::vector<gpu::OpIndex> NoteReaders(IoEngine& engine, OpLog& log,
                                      PageId pid,
                                      const IoEngine::Fetched& fetched,
                                      int n) {
  std::vector<gpu::OpIndex> readers;
  for (int i = 0; i < n; ++i) {
    gpu::TimelineOp h2d;
    h2d.kind = gpu::OpKind::kH2DStream;
    h2d.resource = {gpu::ResourceId::Type::kCopyEngine, i};
    h2d.page = pid;
    readers.push_back(log.Fn()(h2d));
    engine.NoteReader(fetched, readers.back());
  }
  return readers;
}

/// A device read that lands in an MMBuf slot overwrites the page an
/// earlier op of the pass read from it, so it depends on every one of
/// that page's readers: one, two (Strategy-S on two GPUs), or three,
/// folded through a zero-cost join.
TEST(IoEngineTest, RefillWaitsForEveryReaderOfItsSlot) {
  IoFixture f;
  auto store = MakeSsdStore(&f.paged, 2, /*buffer_capacity=*/4 * f.page_size());
  ASSERT_TRUE(store->Evicts());
  OpLog log;
  IoEngine engine(&f.paged, store.get(), IoOptions{}, log.Fn(), nullptr);
  engine.BeginPass();

  struct Occupant {
    PageId page = kInvalidPageId;
    std::vector<gpu::OpIndex> readers;
  };
  std::vector<Occupant> slots;
  int refills = 0;
  for (PageId pid = 0; pid < 24; ++pid) {
    auto fetched = engine.Acquire(pid);
    ASSERT_TRUE(fetched.ok());
    ASSERT_FALSE(fetched->buffer_hit) << "page " << pid;
    if (fetched->slot >= slots.size()) slots.resize(fetched->slot + 1);
    Occupant& previous = slots[fetched->slot];
    EXPECT_EQ(fetched->evicted, previous.page) << "page " << pid;
    EXPECT_EQ(Waits(log, fetched->fetch_op), previous.readers)
        << "page " << pid;
    refills += previous.page != kInvalidPageId ? 1 : 0;
    previous.page = pid;
    previous.readers =
        NoteReaders(engine, log, pid, *fetched, 1 + static_cast<int>(pid % 3));
  }
  EXPECT_GE(refills, 12);
}

/// A store that never evicts records no reader dependency, not even for
/// a page re-read into the slot its rewrite freed.
TEST(IoEngineTest, NoReaderDependencyOnAStoreThatNeverEvicts) {
  IoFixture f;
  EXPECT_FALSE(MakeInMemoryStore(&f.paged)->Evicts());
  auto store = MakeSsdStore(&f.paged, 2, /*buffer_capacity=*/~uint64_t{0});
  ASSERT_FALSE(store->Evicts());
  OpLog log;
  IoEngine engine(&f.paged, store.get(), IoOptions{}, log.Fn(), nullptr);
  engine.BeginPass();
  auto first = engine.Acquire(0);
  ASSERT_TRUE(first.ok());
  NoteReaders(engine, log, 0, *first, 2);
  const std::vector<uint8_t> image = f.paged.page_bytes(0);
  ASSERT_TRUE(engine.RewritePage(0, image.data(), image.size()).ok());
  auto again = engine.Acquire(0);
  ASSERT_TRUE(again.ok());
  ASSERT_FALSE(again->buffer_hit);
  EXPECT_EQ(again->slot, first->slot);
  EXPECT_EQ(again->evicted, kInvalidPageId);
  EXPECT_EQ(log.ops[again->fetch_op].dep0, gpu::kNoOp);
  EXPECT_EQ(log.ops[again->fetch_op].dep1, gpu::kNoOp);
}

/// The pass barrier orders every earlier reader before the next pass, so
/// BeginPass forgets them: a refill in the new pass depends on nothing.
TEST(IoEngineTest, BeginPassForgetsReaders) {
  IoFixture f;
  auto store = MakeSsdStore(&f.paged, 2, /*buffer_capacity=*/4 * f.page_size());
  OpLog log;
  IoEngine engine(&f.paged, store.get(), IoOptions{}, log.Fn(), nullptr);
  engine.BeginPass();
  std::vector<bool> read_in_pass1;
  for (PageId pid = 0; pid < 6; ++pid) {
    auto fetched = engine.Acquire(pid);
    ASSERT_TRUE(fetched.ok());
    NoteReaders(engine, log, pid, *fetched, 2);
    if (fetched->slot >= read_in_pass1.size()) {
      read_in_pass1.resize(fetched->slot + 1);
    }
    read_in_pass1[fetched->slot] = true;
  }
  engine.BeginPass();
  int refills = 0;
  for (PageId pid = 6; pid < 12; ++pid) {
    auto fetched = engine.Acquire(pid);
    ASSERT_TRUE(fetched.ok());
    ASSERT_FALSE(fetched->buffer_hit);
    const bool reused = fetched->slot < read_in_pass1.size() &&
                        read_in_pass1[fetched->slot];
    refills += reused ? 1 : 0;
    if (reused) {
      read_in_pass1[fetched->slot] = false;
      EXPECT_EQ(fetched->evicted, kInvalidPageId) << "page " << pid;
      EXPECT_TRUE(Waits(log, fetched->fetch_op).empty()) << "page " << pid;
    }
  }
  EXPECT_GT(refills, 0);
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

/// Sequential merging is a schedule knob: BFS levels and WCC labels must
/// stay bit-identical with it on and off, under the default page order
/// and the scattered frontier-density order. (The name is kept from when
/// this loop also swept device queue depths.)
TEST(IoEngineInvarianceTest, BfsAndWccIdenticalAcrossDepthsAndModes) {
  EngineFixture f;
  const VertexId source = f.Source();

  std::vector<uint16_t> bfs_reference;
  std::vector<uint64_t> wcc_reference;
  for (PageOrderKind order :
       {PageOrderKind::kSpThenLp, PageOrderKind::kFrontierDensity}) {
    for (bool merge : {false, true}) {
      GtsOptions opts;
      opts.io.merge_sequential = merge;
      opts.dispatch.order = order;
      // A small MMBuf adds eviction pressure.
      auto store = MakeSsdStore(&f.paged, 2, /*buffer_capacity=*/256 * kKiB);
      GtsEngine engine(&f.paged, store.get(), f.Machine(), opts);

      auto bfs = RunBfsGts(engine, source);
      ASSERT_TRUE(bfs.ok()) << "merge " << merge;
      auto wcc = RunWccGts(engine);
      ASSERT_TRUE(wcc.ok()) << "merge " << merge;

      if (bfs_reference.empty()) {
        bfs_reference = bfs->levels;
        wcc_reference = wcc->labels;
      } else {
        EXPECT_EQ(bfs->levels, bfs_reference)
            << PageOrderKindName(order) << " merge " << merge;
        EXPECT_EQ(wcc->labels, wcc_reference)
            << PageOrderKindName(order) << " merge " << merge;
      }
    }
  }
}

TEST(IoEngineInvarianceTest, IoCountersSurfaceInRunReport) {
  EngineFixture f;
  GtsOptions opts;
  opts.io.merge_sequential = true;
  auto store = MakeSsdStore(&f.paged, 2, 256 * kKiB);
  GtsEngine engine(&f.paged, store.get(), f.Machine(), opts);
  auto bfs = RunBfsGts(engine, f.Source());
  ASSERT_TRUE(bfs.ok());
  const auto& metrics = bfs->report.metrics;
  EXPECT_GT(metrics.io_queue.completed, 0u);
  EXPECT_EQ(metrics.io_queue.completed, metrics.io.device_reads);
  EXPECT_GT(metrics.io_queue.merged_bursts, 0u);
  const auto& snapshot = bfs->report.snapshot;
  for (const char* name : {"io.completed", "io.merged_bursts",
                           "io.spill_writes", "io.page_rewrites"}) {
    EXPECT_TRUE(snapshot.count(name)) << name;
  }
}

/// Ingest delta records are the engine's page-less storage writes: the
/// epoch-start publish persists them through IoEngine::Write, the
/// replayed schedule prices them on the SSDs, the validator accepts
/// them beside the reads, and the BFS answers for the updated graph.
TEST(IoEngineInvarianceTest, IngestDeltaWritesArePricedWithoutChangingResults) {
  EngineFixture f;
  const VertexId source = f.Source();
  const VertexId n = f.csr.num_vertices();
  // Degree-neutral rewiring, so no page overflows and every update
  // applies: drop a vertex's first neighbor, add another.
  ingest::UpdateBatch updates;
  std::vector<Edge> updated_edges = f.edges.edges();
  for (VertexId v = 0; v < n; v += 3) {
    if (f.csr.out_degree(v) == 0) continue;
    const Edge victim{v, f.csr.neighbors(v)[0]};
    const Edge replacement{v, (v * 31 + 7) % n};
    updates.push_back(ingest::EdgeUpdate::Remove(victim.src, victim.dst));
    updates.push_back(
        ingest::EdgeUpdate::Insert(replacement.src, replacement.dst));
    updated_edges.erase(
        std::find(updated_edges.begin(), updated_edges.end(), victim));
    updated_edges.push_back(replacement);
  }

  auto run_with = [&](bool append) {
    GtsOptions opts;
    opts.ingest.enabled = true;
    opts.ingest.background_compaction = false;
    auto store = MakeSsdStore(&f.paged, 2, 256 * kKiB);
    GtsEngine engine(&f.paged, store.get(), f.Machine(), opts);
    if (append) {
      GTS_CHECK_OK(engine.edge_stream()->Append(updates));
      engine.edge_stream()->FlushGutters();
    }
    auto bfs = RunBfsGts(engine, source);
    GTS_CHECK(bfs.ok()) << bfs.status().ToString();
    return std::move(bfs).ValueOrDie();
  };
  const BfsGtsResult base = run_with(false);
  const BfsGtsResult updated = run_with(true);
  const RunMetrics& m = updated.report.metrics;
  EXPECT_EQ(base.report.metrics.io_queue.spill_writes, 0u);
  EXPECT_GT(m.io_queue.spill_writes, 0u);
  // The writes occupy the storage devices in simulated time.
  EXPECT_GT(m.storage_busy, base.report.metrics.storage_busy);
  EXPECT_EQ(m.analysis.violations_detected, 0u) << m.analysis.ToString();

  const CsrGraph updated_csr =
      CsrGraph::FromEdgeList(EdgeList(n, std::move(updated_edges)));
  const std::vector<uint32_t> expected = ReferenceBfs(updated_csr, source);
  ASSERT_EQ(updated.levels.size(), expected.size());
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t want =
        expected[v] == kUnreachedLevel ? BfsKernel::kUnvisited : expected[v];
    ASSERT_EQ(updated.levels[v], want) << "vertex " << v;
  }
}

}  // namespace
}  // namespace io
}  // namespace gts
