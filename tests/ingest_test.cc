// Tests for gts::ingest streaming graph updates (DESIGN.md section 15):
// gutter buffering, delta resolution and overlay, deletion semantics,
// quiesce bit-identity against a cold rebuild of the updated graph
// across the dispatch matrix, compaction-under-pin cache semantics, the
// per-job streamed-bytes quota, and the scheduler's QuiesceIngest safe
// point.
#include "ingest/edge_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "algorithms/bc.h"
#include "algorithms/bfs.h"
#include "algorithms/degree.h"
#include "algorithms/kcore.h"
#include "algorithms/pagerank.h"
#include "algorithms/radius.h"
#include "algorithms/reference.h"
#include "algorithms/rwr.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "core/engine.h"
#include "core/job/job_scheduler.h"
#include "core/page_cache.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "ingest/gutter_bank.h"
#include "storage/page_builder.h"

namespace gts {
namespace {

using ingest::EdgeUpdate;
using ingest::GutterBank;
using ingest::IngestStats;
using ingest::UpdateBatch;

struct TestGraph {
  EdgeList edges;
  CsrGraph csr;
  PagedGraph paged;
  std::unique_ptr<PageStore> store;
};

TestGraph MakeTestGraph(int scale, double edge_factor, uint64_t seed = 99) {
  RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.seed = seed;
  TestGraph g;
  g.edges = std::move(GenerateRmat(p)).ValueOrDie();
  g.csr = CsrGraph::FromEdgeList(g.edges);
  g.paged =
      std::move(BuildPagedGraph(g.csr, PageConfig::Small22())).ValueOrDie();
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

GtsOptions IngestOpts() {
  GtsOptions opts;
  opts.ingest.enabled = true;
  // Inline compaction: the bit-identity assertions need a deterministic
  // compaction schedule.
  opts.ingest.background_compaction = false;
  return opts;
}

/// Deterministic xorshift so "shuffled" streams reproduce run to run.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed * 2654435761u + 1) {}
  uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

/// Replays applied-order update semantics on a plain edge multiset: an
/// insert appends, a delete removes the first matching occurrence (or is
/// dropped). The reference the engine's post-quiesce state must match.
EdgeList ApplyToEdgeList(const EdgeList& base,
                         const std::vector<EdgeUpdate>& updates) {
  std::vector<Edge> edges = base.edges();
  for (const EdgeUpdate& u : updates) {
    if (!u.remove) {
      edges.push_back({u.src, u.dst});
      continue;
    }
    auto it = std::find(edges.begin(), edges.end(), Edge{u.src, u.dst});
    if (it != edges.end()) edges.erase(it);
  }
  return EdgeList(base.num_vertices(), std::move(edges));
}

// ------------------------------------------------------------- gutters

TEST(GutterBankTest, CapacityFlushPreservesAppendOrder) {
  GutterBank bank(/*num_pages=*/4, /*gutter_capacity=*/3);
  bank.Add(1, EdgeUpdate::Insert(10, 11));
  bank.Add(1, EdgeUpdate::Insert(10, 12));
  EXPECT_EQ(bank.flushes(), 0u);
  EXPECT_EQ(bank.BufferedUpdates(), 2u);
  bank.Add(1, EdgeUpdate::Remove(10, 11));  // hits capacity -> auto-flush
  EXPECT_EQ(bank.flushes(), 1u);

  auto flushes = bank.DrainPending();
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0].pid, 1u);
  ASSERT_EQ(flushes[0].updates.size(), 3u);
  EXPECT_EQ(flushes[0].updates[0], EdgeUpdate::Insert(10, 11));
  EXPECT_EQ(flushes[0].updates[1], EdgeUpdate::Insert(10, 12));
  EXPECT_EQ(flushes[0].updates[2], EdgeUpdate::Remove(10, 11));
  EXPECT_EQ(bank.BufferedUpdates(), 0u);
}

TEST(GutterBankTest, FlushAllMovesPartialGutters) {
  GutterBank bank(/*num_pages=*/4, /*gutter_capacity=*/64);
  bank.Add(0, EdgeUpdate::Insert(1, 2));
  bank.Add(2, EdgeUpdate::Insert(5, 6));
  bank.Add(2, EdgeUpdate::Insert(5, 7));
  EXPECT_TRUE(bank.DrainPending().empty());  // nothing hit capacity
  bank.FlushAll();
  EXPECT_EQ(bank.flushes(), 2u);
  auto flushes = bank.DrainPending();
  ASSERT_EQ(flushes.size(), 2u);
  size_t total = 0;
  for (const auto& f : flushes) total += f.updates.size();
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(bank.BufferedUpdates(), 0u);
}

TEST(IngestOptionsTest, ValidateRejectsZeroKnobs) {
  const MachineConfig machine = TestMachine();
  GtsOptions opts = IngestOpts();
  opts.ingest.gutter_capacity = 0;
  EXPECT_EQ(opts.Validate(machine).code(), StatusCode::kInvalidArgument);
  opts = IngestOpts();
  opts.ingest.compact_threshold = 0;
  EXPECT_EQ(opts.Validate(machine).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(IngestOpts().Validate(machine).ok());
  opts = IngestOpts();
  opts.dispatch.steal_batch = 0;
  EXPECT_EQ(opts.Validate(machine).code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------- EdgeStream semantics

TEST(EdgeStreamTest, AppendRejectsOutOfRangeIds) {
  TestGraph g = MakeTestGraph(8, 4);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), IngestOpts());
  ingest::EdgeStream* stream = engine.edge_stream();
  ASSERT_NE(stream, nullptr);
  const VertexId n = g.csr.num_vertices();
  EXPECT_EQ(stream->Append({EdgeUpdate::Insert(n, 0)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stream->Append({EdgeUpdate::Insert(0, n)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(stream->BufferedUpdates(), 0u);
}

TEST(EdgeStreamTest, InsertAppendsAndDeleteRemovesFirstOccurrence) {
  TestGraph g = MakeTestGraph(8, 4);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), IngestOpts());
  ingest::EdgeStream* stream = engine.edge_stream();

  const VertexId v = BusySource(g.csr);
  ASSERT_GE(g.csr.out_degree(v), 2u);
  const VertexId existing = g.csr.neighbors(v)[0];
  const VertexId fresh = (existing + 1) % g.csr.num_vertices();

  ASSERT_TRUE(stream
                  ->Append({EdgeUpdate::Insert(v, fresh),
                            EdgeUpdate::Remove(v, existing)})
                  .ok());
  ASSERT_TRUE(engine.scheduler().QuiesceIngest().ok());

  const auto neighbors = stream->CurrentNeighbors(v);
  const auto base = g.csr.neighbors(v);
  // Applied order: base minus the first `existing`, with `fresh` appended.
  std::vector<VertexId> want;
  bool removed = false;
  for (VertexId nb : base) {
    if (!removed && nb == existing) {
      removed = true;
      continue;
    }
    want.push_back(nb);
  }
  want.push_back(fresh);
  EXPECT_EQ(neighbors, want);
  EXPECT_EQ(stream->EdgeCountDelta(), 0);
}

TEST(EdgeStreamTest, DeleteOfMissingEdgeIsDroppedAndCounted) {
  TestGraph g = MakeTestGraph(8, 4);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), IngestOpts());
  ingest::EdgeStream* stream = engine.edge_stream();

  // Self-loop-free RMAT page 0 vertex: deleting an edge to itself that
  // does not exist must drop, not corrupt.
  const VertexId v = BusySource(g.csr);
  VertexId absent = 0;
  while (std::find(g.csr.neighbors(v).begin(), g.csr.neighbors(v).end(),
                   absent) != g.csr.neighbors(v).end()) {
    ++absent;
  }
  const auto before = stream->CurrentNeighbors(v);
  ASSERT_TRUE(stream->Append({EdgeUpdate::Remove(v, absent)}).ok());
  ASSERT_TRUE(engine.scheduler().QuiesceIngest().ok());
  EXPECT_EQ(stream->CurrentNeighbors(v), before);
  EXPECT_EQ(stream->SnapshotStats().deletes_dropped, 1u);
  EXPECT_EQ(stream->SnapshotStats().updates_applied, 0u);
}

TEST(EdgeStreamTest, PageCapacityOverflowRejectsInserts) {
  TestGraph g = MakeTestGraph(8, 4);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), IngestOpts());
  ingest::EdgeStream* stream = engine.edge_stream();

  // Grow one vertex until its page runs out of record space; the excess
  // inserts must be rejected (counted), never written torn.
  const VertexId v = 1;
  UpdateBatch batch;
  const VertexId n = g.csr.num_vertices();
  for (int i = 0; i < 2000; ++i) {
    batch.push_back(EdgeUpdate::Insert(v, static_cast<VertexId>(i % n)));
  }
  ASSERT_TRUE(stream->Append(batch).ok());
  ASSERT_TRUE(engine.scheduler().QuiesceIngest().ok());
  const IngestStats stats = stream->SnapshotStats();
  EXPECT_GT(stats.updates_rejected, 0u);
  EXPECT_GT(stats.updates_applied, 0u);
  // Whatever was applied must still answer queries coherently.
  auto bfs = RunBfsGts(engine, v);
  ASSERT_TRUE(bfs.ok()) << bfs.status();
}

// ----------------------------------- quiesce bit-identity (the tentpole)

/// Degree-neutral, order-preserving update set: for every vertex with
/// degree >= 2 whose page we touch, delete the *last* (largest, adjacency
/// lists are built sorted) neighbor and insert a replacement >= the new
/// maximum. Applied order then stays sorted, so after Quiesce() the
/// rebuilt pages must be byte-identical to PageBuilder output for the
/// updated edge list -- including for order-sensitive float kernels.
std::vector<EdgeUpdate> DegreeNeutralUpdates(const CsrGraph& csr,
                                             int every_nth) {
  std::vector<EdgeUpdate> updates;
  const VertexId n = csr.num_vertices();
  for (VertexId v = 0; v < n; v += every_nth) {
    const auto nbrs = csr.neighbors(v);
    if (nbrs.size() < 2) continue;
    const VertexId last = nbrs[nbrs.size() - 1];
    const VertexId replacement =
        last + 1 < n ? last + 1 : last;  // keeps the list sorted
    updates.push_back(EdgeUpdate::Remove(v, last));
    updates.push_back(EdgeUpdate::Insert(v, replacement));
  }
  return updates;
}

/// Feeds `updates` through `stream` as interleaved producer batches
/// (pairs stay intact so per-page apply order is deterministic), then
/// fully quiesces via the scheduler safe point.
void StreamAndQuiesce(GtsEngine& engine,
                      const std::vector<EdgeUpdate>& updates,
                      uint64_t shuffle_seed) {
  // Shuffle at pair granularity: a vertex's remove must precede its
  // insert, but distinct vertices' pairs commute.
  std::vector<size_t> order(updates.size() / 2);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(shuffle_seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Next() % i]);
  }
  ingest::EdgeStream* stream = engine.edge_stream();
  UpdateBatch batch;
  for (size_t pair : order) {
    batch.push_back(updates[2 * pair]);
    batch.push_back(updates[2 * pair + 1]);
    if (batch.size() >= 32) {
      ASSERT_TRUE(stream->Append(batch).ok());
      batch.clear();
    }
  }
  if (!batch.empty()) {
    ASSERT_TRUE(stream->Append(batch).ok());
  }
  ASSERT_TRUE(engine.scheduler().QuiesceIngest().ok());
}

TEST(IngestQuiesceTest, DevicePagesMatchColdRebuildByteForByte) {
  TestGraph g = MakeTestGraph(10, 8);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), IngestOpts());
  const auto updates = DegreeNeutralUpdates(g.csr, /*every_nth=*/3);
  ASSERT_FALSE(updates.empty());
  StreamAndQuiesce(engine, updates, /*shuffle_seed=*/7);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  // Cold rebuild of the updated graph through the standard builder.
  TestGraph cold;
  cold.edges = ApplyToEdgeList(g.edges, updates);
  cold.csr = CsrGraph::FromEdgeList(cold.edges);
  cold.paged =
      std::move(BuildPagedGraph(cold.csr, PageConfig::Small22())).ValueOrDie();
  cold.store = MakeInMemoryStore(&cold.paged);

  ASSERT_EQ(cold.paged.num_pages(), g.paged.num_pages());
  const uint64_t page_size = g.paged.config().page_size;
  for (PageId pid = 0; pid < g.paged.num_pages(); ++pid) {
    auto live = g.store->Fetch(pid);
    auto want = cold.store->Fetch(pid);
    ASSERT_TRUE(live.ok() && want.ok());
    EXPECT_EQ(std::memcmp(live->data, want->data, page_size), 0)
        << "page " << pid << " differs from the cold rebuild";
  }
}

/// A graph whose pages the delta test below controls: vertex v has
/// 1 + v % 6 distinct neighbors (v + 1 + 37k) % n, vertex 0 also lists
/// vertex 7 twice, and vertex `lp` has the 2,500 neighbors 0..2500 except
/// itself, three Small22 LP chunks (1,016 + 1,016 + 468 entries).
EdgeList ShapedEdges(VertexId n, VertexId lp) {
  EdgeList edges;
  edges.set_num_vertices(n);
  for (VertexId v = 0; v < n; ++v) {
    if (v == lp) {
      for (VertexId u = 0; u <= 2500; ++u) {
        if (u != lp) edges.Add(v, u);
      }
      continue;
    }
    for (VertexId k = 0; k < 1 + v % 6; ++k) {
      edges.Add(v, (v + 1 + 37 * k) % n);
    }
  }
  edges.Add(0, 7);
  edges.Add(0, 7);
  return edges;
}

TEST(IngestOverlayTest, PendingDeltasMatchColdRebuildByteForByte) {
  constexpr VertexId kN = 3000;
  constexpr VertexId kLp = 1500;
  TestGraph g;
  g.edges = ShapedEdges(kN, kLp);
  g.csr = CsrGraph::FromEdgeList(g.edges);
  g.paged =
      std::move(BuildPagedGraph(g.csr, PageConfig::Small22())).ValueOrDie();
  g.store = MakeInMemoryStore(&g.paged);
  const PageConfig& config = g.paged.config();

  const PageId sp = g.paged.PageOfVertex(0);
  const PageId lp = g.paged.PageOfVertex(kLp);
  ASSERT_EQ(g.paged.kind(sp), PageKind::kSmall);
  ASSERT_EQ(g.paged.kind(lp), PageKind::kLarge);
  ASSERT_EQ(g.paged.rvt().entry(lp).lp_more, 2u);
  const PageView sp_view(g.paged.page_bytes(sp).data(), config);
  const uint32_t slots = sp_view.num_slots();
  ASSERT_GE(slots, 3u);
  const VertexId first = sp_view.slot_vid(0);
  const VertexId mid = sp_view.slot_vid(slots / 2);
  const VertexId last = sp_view.slot_vid(slots - 1);
  // The next page only loses an entry, which frees too little for the
  // cold build to move another record onto it (the page compare below
  // would show one). A remove no insert follows leaves a tail to zero.
  ASSERT_EQ(g.paged.kind(sp + 1), PageKind::kSmall);
  const VertexId shrink =
      PageView(g.paged.page_bytes(sp + 1).data(), config).slot_vid(0);
  VertexId absent = 0;
  while (std::find(g.csr.neighbors(last).begin(), g.csr.neighbors(last).end(),
                   absent) != g.csr.neighbors(last).end()) {
    ++absent;
  }

  // Inserts append kN - 1, the largest id, so every adjacency list stays
  // sorted and a cold rebuild lays the pages out the same way. The SP
  // inserts go last: they fill the page until the capacity check rejects
  // the tail of them.
  std::vector<EdgeUpdate> updates = {
      EdgeUpdate::Remove(first, 7),             // one of two duplicates
      EdgeUpdate::Remove(mid, g.csr.neighbors(mid)[0]),
      EdgeUpdate::Remove(last, absent),         // dropped
      EdgeUpdate::Insert(first, kN - 1),        // shifts every later slot
      EdgeUpdate::Insert(mid, kN - 1),
      EdgeUpdate::Remove(shrink, g.csr.neighbors(shrink)[0]),
      EdgeUpdate::Remove(kLp, kN - 1),          // dropped: not inserted yet
  };
  for (int i = 0; i < 5; ++i) {
    updates.push_back(EdgeUpdate::Insert(kLp, kN - 1));  // last chunk
  }
  updates.push_back(EdgeUpdate::Remove(kLp, 2500));  // in the last chunk
  for (int i = 0; i < 1200; ++i) {
    updates.push_back(EdgeUpdate::Insert(last, kN - 1));
  }

  GtsOptions opts = IngestOpts();
  opts.ingest.compact_threshold = 1u << 30;  // keep every delta pending
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), opts);
  ingest::EdgeStream* stream = engine.edge_stream();
  ASSERT_TRUE(stream->Append(updates).ok());
  stream->FlushGutters();
  (void)stream->Publish();

  const IngestStats stats = stream->SnapshotStats();
  EXPECT_EQ(stats.compactions, 0u);
  EXPECT_EQ(stats.deletes_dropped, 2u);
  ASSERT_GT(stats.updates_rejected, 0u);
  ASSERT_LT(stats.updates_rejected, 1200u);
  // Every LP chunk carries a kSetLpTotal for the new total degree.
  for (PageId pid = lp; pid <= lp + 2; ++pid) {
    EXPECT_TRUE(stream->HasDeltas(pid)) << "LP chunk " << pid;
  }

  TestGraph cold;
  cold.edges = ApplyToEdgeList(
      g.edges, std::vector<EdgeUpdate>(
                   updates.begin(),
                   updates.end() -
                       static_cast<ptrdiff_t>(stats.updates_rejected)));
  cold.csr = CsrGraph::FromEdgeList(cold.edges);
  cold.paged =
      std::move(BuildPagedGraph(cold.csr, PageConfig::Small22())).ValueOrDie();
  ASSERT_EQ(cold.paged.num_pages(), g.paged.num_pages());
  EXPECT_EQ(PageView(cold.paged.page_bytes(lp).data(), config)
                .header()
                .lp_total_degree,
            2504u);

  for (PageId pid = 0; pid < g.paged.num_pages(); ++pid) {
    std::vector<uint8_t> live = g.paged.page_bytes(pid);
    (void)stream->Overlay(pid, live.data());
    EXPECT_EQ(std::memcmp(live.data(), cold.paged.page_bytes(pid).data(),
                          config.page_size),
              0)
        << "overlaid page " << pid << " differs from the cold rebuild";
  }

  ASSERT_TRUE(engine.scheduler().QuiesceIngest().ok());
  EXPECT_GT(stream->SnapshotStats().compactions, 0u);
  for (PageId pid = 0; pid < g.paged.num_pages(); ++pid) {
    auto live = g.store->Fetch(pid);
    ASSERT_TRUE(live.ok());
    EXPECT_EQ(std::memcmp(live->data, cold.paged.page_bytes(pid).data(),
                          config.page_size),
              0)
        << "installed page " << pid << " differs from the cold rebuild";
  }
}

// ------------------------------------------- compaction install order

uint64_t DigestPages(const std::vector<PageId>& pids) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a
  for (PageId pid : pids) {
    for (int i = 0; i < 4; ++i) {
      h = (h ^ ((pid >> (8 * i)) & 0xFF)) * 1099511628211ull;
    }
  }
  return h;
}

/// Pins the order in which inline compaction installs pages, which the
/// simulated write schedule follows. Equal chains install in the delta
/// store's hash-table iteration order; the digests were recorded from the
/// picker that rescanned every page per install.
TEST(IngestCompactionOrderTest, InstallOrderMatchesPinnedDigests) {
  TestGraph g = MakeTestGraph(12, 8);
  std::vector<PageId> installed;
  ingest::EdgeStream::Env env;
  env.graph = &g.paged;
  env.options.enabled = true;
  env.options.background_compaction = false;
  env.options.compact_threshold = 2;
  env.rewrite_page = [&installed](PageId pid, const uint8_t*, uint64_t) {
    installed.push_back(pid);
  };
  ingest::EdgeStream stream(std::move(env));
  const VertexId n = g.csr.num_vertices();

  // Publish: one degree-neutral pair on the first vertex of degree >= 2
  // of each page (chain 2), two on every third page (chain 4).
  std::vector<int> pairs(g.paged.num_pages(), 0);
  UpdateBatch rewire;
  for (VertexId v = 0; v < n; ++v) {
    const PageId pid = g.paged.PageOfVertex(v);
    const auto nbrs = g.csr.neighbors(v);
    if (nbrs.size() < 2 || pairs[pid] >= (pid % 3 == 0 ? 2 : 1)) continue;
    ++pairs[pid];
    rewire.push_back(EdgeUpdate::Remove(v, nbrs.back()));
    rewire.push_back(EdgeUpdate::Insert(v, (nbrs.back() + 1) % n));
  }
  ASSERT_TRUE(stream.Append(rewire).ok());
  stream.FlushGutters();
  (void)stream.Publish();
  const std::vector<PageId> published = std::move(installed);
  installed.clear();

  // Quiesce: one insert on the first vertex of each page (chain 1, left
  // for the quiesce pass), two on every fourth page (chain 2, compacted
  // by the quiesce's own publish first).
  std::vector<int> inserts(g.paged.num_pages(), 0);
  UpdateBatch grow;
  for (VertexId v = 0; v < n; ++v) {
    const PageId pid = g.paged.PageOfVertex(v);
    if (inserts[pid] >= (pid % 4 == 0 ? 2 : 1)) continue;
    ++inserts[pid];
    grow.push_back(EdgeUpdate::Insert(v, (v + 1) % n));
  }
  ASSERT_TRUE(stream.Append(grow).ok());
  (void)stream.Quiesce();
  const std::vector<PageId> quiesced = std::move(installed);

  EXPECT_EQ(published.size(), 51u);
  EXPECT_EQ(quiesced.size(), 48u);
  EXPECT_EQ(DigestPages(published), 16222184834968927173ull);
  EXPECT_EQ(DigestPages(quiesced), 1886113555933321439ull);
}

/// One cell of the dispatch matrix: all ten kernels on the quiesced
/// ingest engine vs a cold engine over the rebuilt updated graph, same
/// options. On deterministic (inline) configs every result must be
/// bit-identical; with stream threads the order-sensitive float
/// accumulations may legally differ between any two runs, so only the
/// order-insensitive kernels are compared exactly there.
struct MatrixParam {
  bool work_stealing;
  bool stream_threads;
  uint32_t steal_batch;
};

class IngestDispatchMatrixTest
    : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(IngestDispatchMatrixTest, TenKernelsMatchColdRebuild) {
  TestGraph g = MakeTestGraph(9, 6);
  GtsOptions opts = IngestOpts();
  opts.dispatch.work_stealing = GetParam().work_stealing;
  opts.use_stream_threads = GetParam().stream_threads;
  opts.dispatch.steal_batch = GetParam().steal_batch;

  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), opts);
  const auto updates = DegreeNeutralUpdates(g.csr, /*every_nth=*/2);
  ASSERT_FALSE(updates.empty());
  StreamAndQuiesce(engine, updates, /*shuffle_seed=*/13);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  TestGraph cold;
  cold.edges = ApplyToEdgeList(g.edges, updates);
  cold.csr = CsrGraph::FromEdgeList(cold.edges);
  cold.paged =
      std::move(BuildPagedGraph(cold.csr, PageConfig::Small22())).ValueOrDie();
  cold.store = MakeInMemoryStore(&cold.paged);
  GtsEngine cold_engine(&cold.paged, cold.store.get(), TestMachine(), opts);

  const VertexId source = BusySource(cold.csr);
  const bool deterministic = !GetParam().stream_threads;

  {  // 1. BFS
    auto live = RunBfsGts(engine, source);
    auto want = RunBfsGts(cold_engine, source);
    ASSERT_TRUE(live.ok() && want.ok());
    EXPECT_EQ(live->levels, want->levels);
  }
  {  // 2. k-hop neighborhood
    auto live = RunNeighborhoodGts(engine, source);
    auto want = RunNeighborhoodGts(cold_engine, source);
    ASSERT_TRUE(live.ok() && want.ok());
    EXPECT_EQ(live->members, want->members);
  }
  {  // 3. SSSP (min-plus: float but order-insensitive)
    auto live = RunSsspGts(engine, source);
    auto want = RunSsspGts(cold_engine, source);
    ASSERT_TRUE(live.ok() && want.ok());
    EXPECT_EQ(live->distances, want->distances);
  }
  {  // 4. WCC (min-label: order-insensitive)
    auto live = RunWccGts(engine);
    auto want = RunWccGts(cold_engine);
    ASSERT_TRUE(live.ok() && want.ok());
    EXPECT_EQ(live->labels, want->labels);
  }
  {  // 5. degree distribution
    auto live = RunDegreeGts(engine);
    auto want = RunDegreeGts(cold_engine);
    ASSERT_TRUE(live.ok() && want.ok());
    EXPECT_EQ(live->degrees, want->degrees);
    EXPECT_EQ(live->histogram_log2, want->histogram_log2);
  }
  {  // 6. k-core
    auto live = RunKcoreGts(engine, 3);
    auto want = RunKcoreGts(cold_engine, 3);
    ASSERT_TRUE(live.ok() && want.ok());
    EXPECT_EQ(live->in_core, want->in_core);
    EXPECT_EQ(live->core_size, want->core_size);
  }
  if (deterministic) {
    {  // 7. PageRank (additive float: needs a deterministic schedule)
      JobOptions pr;
      pr.iterations = 3;
      auto live = RunPageRankGts(engine, pr);
      auto want = RunPageRankGts(cold_engine, pr);
      ASSERT_TRUE(live.ok() && want.ok());
      EXPECT_EQ(live->ranks, want->ranks);
    }
    {  // 8. RWR
      auto live = RunRwrGts(engine, source);
      auto want = RunRwrGts(cold_engine, source);
      ASSERT_TRUE(live.ok() && want.ok());
      EXPECT_EQ(live->scores, want->scores);
    }
    {  // 9. betweenness (forward + backward sweep)
      auto live = RunBcGts(engine, source);
      auto want = RunBcGts(cold_engine, source);
      ASSERT_TRUE(live.ok() && want.ok());
      EXPECT_EQ(live->deltas, want->deltas);
    }
    {  // 10. radius / neighborhood function (FM sketches)
      auto live = RunRadiusGts(engine);
      auto want = RunRadiusGts(cold_engine);
      ASSERT_TRUE(live.ok() && want.ok());
      EXPECT_EQ(live->neighborhood_function, want->neighborhood_function);
      EXPECT_EQ(live->effective_diameter, want->effective_diameter);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DispatchMatrix, IngestDispatchMatrixTest,
    ::testing::Values(MatrixParam{false, false, 1},
                      MatrixParam{true, false, 1},
                      MatrixParam{true, true, 1},
                      MatrixParam{true, true, 4}),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      std::string name = info.param.work_stealing ? "steal" : "push";
      name += info.param.stream_threads ? "_threads" : "_inline";
      name += "_b" + std::to_string(info.param.steal_batch);
      return name;
    });

// --------------------------------------- queries before/without quiesce

TEST(IngestOverlayTest, QueriesSeeUpdatesWithoutQuiesce) {
  TestGraph g = MakeTestGraph(9, 6);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), IngestOpts());
  ingest::EdgeStream* stream = engine.edge_stream();

  // Degree-neutral rewiring (remove one neighbor, insert an arbitrary
  // replacement) so no page can overflow and every update applies; the
  // result is checked against a reference run, not byte layouts. The
  // replacement is *not* sort-preserving -- overlay must cope with
  // out-of-order appends.
  std::vector<EdgeUpdate> updates;
  Rng rng(41);
  const VertexId n = g.csr.num_vertices();
  for (VertexId v = 0; v < n; v += 2) {
    if (g.csr.out_degree(v) == 0) continue;
    const VertexId victim = g.csr.neighbors(v)[0];
    const VertexId replacement = rng.Next() % n;
    updates.push_back(EdgeUpdate::Remove(v, victim));
    updates.push_back(EdgeUpdate::Insert(v, replacement));
  }
  ASSERT_TRUE(stream->Append(updates).ok());
  stream->FlushGutters();
  // No quiesce: the run-start publish resolves the chains and the
  // streamed pages are patched by Overlay().

  const EdgeList updated = ApplyToEdgeList(g.edges, updates);
  const CsrGraph updated_csr = CsrGraph::FromEdgeList(updated);
  const VertexId source = BusySource(updated_csr);

  auto bfs = RunBfsGts(engine, source);
  ASSERT_TRUE(bfs.ok()) << bfs.status();
  const IngestStats stats = stream->SnapshotStats();
  const auto expected = ReferenceBfs(updated_csr, source);
  for (VertexId v = 0; v < updated_csr.num_vertices(); ++v) {
    const uint32_t want = expected[v] == kUnreachedLevel
                              ? BfsKernel::kUnvisited
                              : expected[v];
    ASSERT_EQ(bfs->levels[v], want)
        << "vertex " << v << " applied=" << stats.updates_applied
        << " rejected=" << stats.updates_rejected
        << " dropped=" << stats.deletes_dropped;
  }
  EXPECT_GT(stats.updates_applied, 0u);
}

// -------------------------------------------- compaction under pins

TEST(IngestCachePinTest, InvalidateDefersEvictionUntilLastUnpin) {
  gpu::Device device(0, 64 * kKiB);
  constexpr uint64_t kPageSize = 1 * kKiB;
  PageCache cache(&device, 8 * kPageSize, kPageSize, CachePolicy::kLru);
  std::vector<uint8_t> bytes(kPageSize, 0x5A);
  ASSERT_TRUE(cache.Insert(9, bytes.data(), /*version=*/1).ok());
  EXPECT_EQ(cache.VersionOf(9), 1u);

  {
    PageCache::Pin pin = cache.Lookup(9);
    ASSERT_TRUE(pin.valid());
    // Pinned: invalidation must defer (returns false), and the stale
    // entry must stop answering lookups immediately.
    EXPECT_FALSE(cache.Invalidate(9));
    EXPECT_FALSE(cache.Contains(9));
    EXPECT_FALSE(cache.Lookup(9).valid());
    // The pinned bytes stay readable until release (the in-flight kernel
    // finishes against the old image).
    EXPECT_EQ(pin.data()[0], 0x5A);
  }
  // Last unpin: the stale entry is gone; a fresh insert re-admits.
  EXPECT_FALSE(cache.Contains(9));
  ASSERT_TRUE(cache.Insert(9, bytes.data(), /*version=*/2).ok());
  EXPECT_EQ(cache.VersionOf(9), 2u);
  EXPECT_TRUE(cache.Lookup(9).valid());

  // Unpinned invalidation erases immediately and reports true.
  EXPECT_TRUE(cache.Invalidate(9));
  EXPECT_FALSE(cache.Contains(9));
  // Invalidating an absent page is a (true) no-op.
  EXPECT_TRUE(cache.Invalidate(9));
}

// ----------------------------------------------- quota + scheduler API

TEST(IngestJobTest, StreamedBytesQuotaReturnsResourceExhausted) {
  TestGraph g = MakeTestGraph(10, 8);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), GtsOptions{});
  const VertexId source = BusySource(g.csr);

  BfsKernel kernel(g.csr.num_vertices(), source);
  JobOptions job;
  job.source = source;
  job.max_streamed_bytes = 1;  // any level past the first busts the quota
  JobHandle handle = engine.scheduler().Submit(&kernel, job);
  Result<RunReport> report = handle.Wait();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsResourceExhausted()) << report.status();

  const auto snapshot = engine.metrics_registry()->Snapshot();
  auto it = snapshot.find("jobs.quota_deferrals");
  ASSERT_NE(it, snapshot.end());
  EXPECT_GE(it->second.count, 1u);

  // An unlimited job on the same engine still completes.
  BfsKernel retry(g.csr.num_vertices(), source);
  JobOptions unlimited;
  unlimited.source = source;
  JobHandle ok_handle = engine.scheduler().Submit(&retry, unlimited);
  EXPECT_TRUE(ok_handle.Wait().ok());
}

TEST(IngestJobTest, QuiesceWithoutIngestFailsPrecondition) {
  TestGraph g = MakeTestGraph(8, 4);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), GtsOptions{});
  EXPECT_EQ(engine.scheduler().QuiesceIngest().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.edge_stream(), nullptr);
}

TEST(IngestJobTest, RunMetricsHarvestIngestActivity) {
  TestGraph g = MakeTestGraph(9, 6);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), IngestOpts());
  const auto updates = DegreeNeutralUpdates(g.csr, /*every_nth=*/2);
  StreamAndQuiesce(engine, updates, /*shuffle_seed=*/3);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  // The first run after the quiesce harvests everything since the last
  // run (here: all of it).
  auto bfs = RunBfsGts(engine, BusySource(g.csr));
  ASSERT_TRUE(bfs.ok());
  EXPECT_GT(bfs->report.metrics.ingest_updates_applied, 0u);
  EXPECT_GT(bfs->report.metrics.ingest_deltas_flushed, 0u);
  EXPECT_GT(bfs->report.metrics.ingest_compactions, 0u);

  const auto snapshot = engine.metrics_registry()->Snapshot();
  for (const char* name :
       {"ingest.updates_applied", "ingest.deltas_flushed",
        "ingest.compactions", "ingest.gutter_flushes"}) {
    auto it = snapshot.find(name);
    ASSERT_NE(it, snapshot.end()) << name;
    EXPECT_GT(it->second.count, 0u) << name;
  }

  // A second run with no new updates harvests nothing.
  auto again = RunBfsGts(engine, BusySource(g.csr));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->report.metrics.ingest_updates_applied, 0u);
}

TEST(IngestJobTest, PinnedGraphVersionJobCompletesUnderChurn) {
  TestGraph g = MakeTestGraph(9, 6);
  GtsEngine engine(&g.paged, g.store.get(), TestMachine(), IngestOpts());
  ingest::EdgeStream* stream = engine.edge_stream();
  const VertexId source = BusySource(g.csr);

  // Buffered-but-unpublished churn; the pinned job must neither crash
  // nor pick up mid-run publishes.
  ASSERT_TRUE(stream
                  ->Append({EdgeUpdate::Insert(source, 0),
                            EdgeUpdate::Insert(0, source)})
                  .ok());

  BfsKernel kernel(g.csr.num_vertices(), source);
  JobOptions job;
  job.source = source;
  job.pin_graph_version = true;
  JobHandle handle = engine.scheduler().Submit(&kernel, job);
  ASSERT_TRUE(handle.Wait().ok());
  EXPECT_EQ(kernel.levels()[source], 0);
}

}  // namespace
}  // namespace gts
