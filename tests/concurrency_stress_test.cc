// Concurrency stress harness for the hot-path shared state: the device
// PageCache (N pinning readers vs an evicting writer -- the exact
// interleaving that was a use-after-eviction before Lookup returned RAII
// Pins) and gpu::Stream enqueue/synchronize/destroy interleavings.
//
// Sized to finish in well under 30 s under TSan on one core; run it under
// every GTS_SANITIZE mode via tools/check_sanitizers.sh.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/bfs.h"
#include "algorithms/reference.h"
#include "common/units.h"
#include "core/engine.h"
#include "core/job/job_scheduler.h"
#include "core/page_cache.h"
#include "gpu/device.h"
#include "gpu/stream.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "ingest/edge_stream.h"
#include "storage/page_builder.h"

namespace gts {
namespace {

constexpr uint64_t kPageSize = 1 * kKiB;

/// Every byte of page `pid` is FillByte(pid), so any torn or dangling read
/// is detectable from the data alone.
uint8_t FillByte(PageId pid) { return static_cast<uint8_t>(pid * 37 + 11); }

std::vector<uint8_t> MakePage(PageId pid) {
  return std::vector<uint8_t>(kPageSize, FillByte(pid));
}

// ---------------------------------------------------------------- PageCache

// N readers pin pages and read them in full while a writer cycles inserts
// that constantly evict. Before the Pin API this was a use-after-free: the
// raw Lookup pointer escaped the cache lock and eviction destroyed the
// DeviceBuffer mid-read (ASan catches the stale read, TSan the race).
TEST(PageCacheStressTest, PinningReadersVsEvictingWriter) {
  gpu::Device device(0, 64 * kKiB);
  // Room for 8 of the 32 hot pages: every insert beyond the first 8 evicts.
  PageCache cache(&device, 8 * kPageSize, kPageSize, CachePolicy::kLru);
  constexpr PageId kUniverse = 32;
  constexpr int kReaders = 3;
  constexpr int kReaderIters = 2000;
  constexpr int kWriterIters = 6000;

  // Warm the cache so readers hit from the first iteration even if the OS
  // schedules them before the writer (single-core boxes do exactly that).
  for (PageId pid = 0; pid < 8; ++pid) {
    const std::vector<uint8_t> warm = MakePage(pid);
    ASSERT_TRUE(cache.Insert(pid, warm.data()).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> verified_reads{0};
  std::atomic<uint64_t> corrupt_reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kReaderIters; ++i) {
        const PageId pid = static_cast<PageId>((i * 13 + r * 7) % kUniverse);
        PageCache::Pin pin = cache.Lookup(pid);
        if (!pin.valid()) continue;
        // Slow full-page read: without the pin this is exactly the window
        // in which the writer's eviction frees the buffer under us.
        const uint8_t expected = FillByte(pid);
        bool ok = true;
        for (uint64_t b = 0; b < kPageSize; ++b) {
          ok = ok && pin.data()[b] == expected;
        }
        (ok ? verified_reads : corrupt_reads).fetch_add(1);
      }
    });
  }

  std::thread writer([&] {
    for (int i = 0; i < kWriterIters && !stop.load(); ++i) {
      const PageId pid = static_cast<PageId>(i % kUniverse);
      const std::vector<uint8_t> page = MakePage(pid);
      const Status status = cache.Insert(pid, page.data());
      // OK, cache-full backpressure (readers pinned everything), or
      // transient device-memory pressure are all legal; anything else is
      // a bug.
      ASSERT_TRUE(status.ok() || status.IsCapacityExceeded() ||
                  status.IsOutOfDeviceMemory())
          << status.ToString();
    }
  });

  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();

  EXPECT_EQ(corrupt_reads.load(), 0u);
  EXPECT_GT(verified_reads.load(), 0u) << "stress never hit the cache";
  EXPECT_EQ(cache.pinned(), 0u);  // every Pin released
  // Cache still coherent after the storm.
  EXPECT_LE(cache.size(), cache.capacity_pages());
}

// ------------------------------------------------------------- gpu::Stream

// Destroying a stream with a backlog must drain it (no dropped ops, no
// leaks of captured state).
TEST(StreamStressTest, DestroyWithPendingOpsDrainsQueue) {
  std::atomic<int> executed{0};
  constexpr int kRounds = 40;
  constexpr int kOpsPerRound = 25;
  for (int round = 0; round < kRounds; ++round) {
    gpu::Stream stream;
    for (int i = 0; i < kOpsPerRound; ++i) {
      stream.Enqueue([&executed] { executed.fetch_add(1); });
    }
    // Destructor runs here with most ops still queued.
  }
  EXPECT_EQ(executed.load(), kRounds * kOpsPerRound);
}

// Synchronize must imply that op *closures* are destroyed, not merely
// executed: a closure's captures are released by the time the producer
// reuses what they pointed at.
TEST(StreamStressTest, SynchronizeReleasesCapturedResources) {
  gpu::Stream stream;
  for (int i = 0; i < 50; ++i) {
    auto sentinel = std::make_shared<int>(i);
    stream.Enqueue([sentinel] { (void)*sentinel; });
    stream.Synchronize();
    EXPECT_EQ(sentinel.use_count(), 1)
        << "op closure still alive after Synchronize()";
  }
}

// ---------------------------------------------------------------- Dispatch

// The full engine under real stream threads with every concurrency-hungry
// dispatch feature on at once: LRU cache churn (cache-affinity consults
// Contains() while stream threads insert/evict) and frontier counting.
// Results must match a plain inline run exactly; TSan/ASan patrol the
// page order's reads of shared cache state.
TEST(DispatchStressTest, StreamThreadsWithAffinityMatchInlineRun) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 17;
  EdgeList edges = std::move(GenerateRmat(p)).ValueOrDie();
  CsrGraph csr = CsrGraph::FromEdgeList(edges);
  PagedGraph paged =
      std::move(BuildPagedGraph(csr, PageConfig{2, 2, 1 * kKiB})).ValueOrDie();
  VertexId source = 0;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    if (csr.out_degree(v) > csr.out_degree(source)) source = v;
  }

  auto levels_with = [&](bool threads) {
    auto store = MakeInMemoryStore(&paged);
    MachineConfig machine = MachineConfig::PaperScaled(1);
    machine.device_memory = 8 * kMiB;
    GtsOptions opts;
    opts.num_streams = 4;
    opts.use_stream_threads = threads;
    opts.cache_policy = CachePolicy::kLru;
    opts.cache_bytes = 64 * kKiB;  // far below the working set: constant churn
    opts.dispatch.order = PageOrderKind::kCacheAffinity;
    GtsEngine engine(&paged, store.get(), machine, opts);
    auto result = RunBfsGts(engine, source);
    GTS_CHECK(result.ok());
    return result->levels;
  };

  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(levels_with(/*threads=*/true), levels_with(/*threads=*/false))
        << "round " << round;
  }
}

// Frontier-density ordering under stream threads: the counting PidSet is
// written by kernel completions and read by the next pass's ordering.
TEST(DispatchStressTest, FrontierDensityUnderStreamThreadsIsDeterministic) {
  RmatParams p;
  p.scale = 9;
  p.edge_factor = 16;
  p.seed = 23;
  EdgeList edges = std::move(GenerateRmat(p)).ValueOrDie();
  CsrGraph csr = CsrGraph::FromEdgeList(edges);
  PagedGraph paged =
      std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
  auto store = MakeInMemoryStore(&paged);
  MachineConfig machine = MachineConfig::PaperScaled(1);
  machine.device_memory = 8 * kMiB;

  auto run = [&]() {
    GtsOptions opts;
    opts.num_streams = 4;
    opts.use_stream_threads = true;
    opts.dispatch.order = PageOrderKind::kFrontierDensity;
    GtsEngine engine(&paged, store.get(), machine, opts);
    auto result = RunBfsGts(engine, 1);
    GTS_CHECK(result.ok());
    return result->levels;
  };
  const auto first = run();
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(run(), first) << "round " << round;
  }
}

// --------------------------------------------------------------- gts::io

// The io engine under real stream threads: the dispatch loop is the only
// reader by design, but kernel completions on stream threads touch the
// MMBuf-adjacent state (cache inserts, WA writes) while Acquire stages and
// evicts around them. Sequential merge in frontier-density order plus an
// MMBuf far below the working set maximizes evictions and re-reads;
// results must still match a plain inline run exactly, under TSan/ASan
// like the rest of this file. (The name is kept from when this case also
// ran deep device queues.)
TEST(IoStressTest, DeepQueuesWithStreamThreadsMatchInlineRun) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 29;
  EdgeList edges = std::move(GenerateRmat(p)).ValueOrDie();
  CsrGraph csr = CsrGraph::FromEdgeList(edges);
  PagedGraph paged =
      std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
  VertexId source = 0;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    if (csr.out_degree(v) > csr.out_degree(source)) source = v;
  }

  auto levels_with = [&](bool threads) {
    // A fresh store per run: identical MMBuf state, heavy eviction churn.
    auto store = MakeSsdStore(&paged, 2, /*buffer_capacity=*/128 * kKiB);
    MachineConfig machine = MachineConfig::PaperScaled(1);
    machine.device_memory = 8 * kMiB;
    GtsOptions opts;
    opts.num_streams = 4;
    opts.use_stream_threads = threads;
    opts.io.merge_sequential = true;
    opts.dispatch.order = PageOrderKind::kFrontierDensity;
    GtsEngine engine(&paged, store.get(), machine, opts);
    auto result = RunBfsGts(engine, source);
    GTS_CHECK(result.ok()) << result.status().ToString();
    return result->levels;
  };

  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(levels_with(/*threads=*/true), levels_with(/*threads=*/false))
        << "round " << round;
  }
}

// Edgeless-page skip + degree-weighted counting under stream threads:
// kernel completions bump the weighted PidSet concurrently; the next
// pass's skip reads it after the barrier. The skip must stay
// deterministic and exact across rounds.
TEST(IoStressTest, AdmissionThresholdUnderStreamThreadsIsDeterministic) {
  RmatParams p;
  p.scale = 9;
  p.edge_factor = 16;
  p.seed = 41;
  EdgeList edges = std::move(GenerateRmat(p)).ValueOrDie();
  // Pages of out-degree-0 sinks behind the RMAT pages guarantee the
  // skip has something to skip (dense RMAT pages rarely carry zero
  // active edges).
  const VertexId first_sink = edges.num_vertices();
  edges.set_num_vertices(first_sink + 2048);
  for (VertexId i = 0; i < 2048; ++i) edges.Add(1, first_sink + i);
  CsrGraph csr = CsrGraph::FromEdgeList(edges);
  PagedGraph paged =
      std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
  auto store = MakeInMemoryStore(&paged);
  MachineConfig machine = MachineConfig::PaperScaled(1);
  machine.device_memory = 8 * kMiB;

  auto run = [&]() {
    GtsOptions opts;
    opts.num_streams = 4;
    opts.use_stream_threads = true;
    opts.dispatch.skip_edgeless_pages = true;
    opts.io.merge_sequential = true;
    GtsEngine engine(&paged, store.get(), machine, opts);
    auto result = RunBfsGts(engine, 1);
    GTS_CHECK(result.ok());
    return std::make_pair(result->levels,
                          result->report.metrics.pages_skipped);
  };
  const auto first = run();
  EXPECT_GT(first.second, 0u);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(run(), first) << "round " << round;
  }
}

// ----------------------------------------------------------- JobScheduler

// Many client threads hammer one engine's JobScheduler: concurrent
// Submit/Wait with driver handoff between waiters, multi-job batches
// whose kernels run on stream threads, and a mid-flight Cancel thrown
// in. Every completed BFS must still match the reference; run under
// every GTS_SANITIZE mode (tier-1 check_tsan_jobs).
TEST(JobSchedulerStressTest, ConcurrentSubmittersShareOneEngine) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 41;
  EdgeList edges = std::move(GenerateRmat(p)).ValueOrDie();
  CsrGraph csr = CsrGraph::FromEdgeList(edges);
  PagedGraph paged =
      std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
  auto store = MakeInMemoryStore(&paged);
  MachineConfig machine = MachineConfig::PaperScaled(1);
  machine.device_memory = 8 * kMiB;

  GtsOptions opts;
  opts.num_streams = 4;
  opts.max_concurrent_jobs = 3;
  opts.use_stream_threads = true;
  GtsEngine engine(&paged, store.get(), machine, opts);

  // The busiest sources, so traversals do real page streaming.
  std::vector<VertexId> sources(csr.num_vertices());
  std::iota(sources.begin(), sources.end(), 0);
  std::sort(sources.begin(), sources.end(), [&](VertexId a, VertexId b) {
    return csr.out_degree(a) > csr.out_degree(b);
  });
  constexpr int kClients = 6;
  constexpr int kRounds = 3;
  sources.resize(kClients);

  std::vector<std::vector<uint16_t>> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        BfsKernel kernel(csr.num_vertices(), sources[c]);
        JobOptions job;
        job.source = sources[c];
        job.priority = 1 + c % 3;
        JobHandle handle = engine.scheduler().Submit(&kernel, job);
        auto report = handle.Wait();
        GTS_CHECK(report.ok()) << report.status().ToString();
        if (round == kRounds - 1) got[c] = kernel.levels();
      }
    });
  }
  // One more client submits and immediately cancels, repeatedly: the
  // cancel path must never corrupt the batches the others ride in.
  std::thread canceller([&] {
    for (int round = 0; round < 2 * kRounds; ++round) {
      BfsKernel kernel(csr.num_vertices(), sources[0]);
      JobOptions job;
      job.source = sources[0];
      JobHandle handle = engine.scheduler().Submit(&kernel, job);
      handle.Cancel();
      auto report = handle.Wait();
      GTS_CHECK(report.ok() || report.status().IsCancelled())
          << report.status().ToString();
    }
  });
  for (auto& t : clients) t.join();
  canceller.join();

  for (int c = 0; c < kClients; ++c) {
    const auto expected = ReferenceBfs(csr, sources[c]);
    ASSERT_EQ(got[c].size(), expected.size()) << "client " << c;
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      const uint32_t want = expected[v] == kUnreachedLevel
                                ? BfsKernel::kUnvisited
                                : expected[v];
      ASSERT_EQ(got[c][v], want) << "client " << c << " vertex " << v;
    }
  }
}

// ------------------------------------------------------------ gts::ingest

// Producer threads stream edge updates into the gutter banks while client
// threads keep BFS jobs flowing through the scheduler (one pinning its
// graph version against mid-run publishes), whose safe-point publishes
// compact pages. Producers own disjoint vertex ranges and rewire
// degree-neutrally, so the final edge set is deterministic no matter how
// the interleaving lands; after QuiesceIngest a final BFS must match the
// reference on the updated graph. Run under every GTS_SANITIZE mode
// (tier-1 check_tsan_jobs).
TEST(IngestStressTest, ProducersVersusConcurrentJobs) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 47;
  EdgeList edges = std::move(GenerateRmat(p)).ValueOrDie();
  CsrGraph csr = CsrGraph::FromEdgeList(edges);
  PagedGraph paged =
      std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
  auto store = MakeInMemoryStore(&paged);
  MachineConfig machine = MachineConfig::PaperScaled(1);
  machine.device_memory = 32 * kMiB;

  GtsOptions opts;
  opts.max_concurrent_jobs = 2;
  opts.use_stream_threads = true;
  opts.ingest.enabled = true;
  GtsEngine engine(&paged, store.get(), machine, opts);
  ingest::EdgeStream* stream = engine.edge_stream();
  ASSERT_NE(stream, nullptr);

  // Each producer rewires its own vertex slice: remove the smallest
  // neighbor, insert a deterministic replacement. Degree-neutral, so no
  // page can overflow and no update is ever rejected.
  const VertexId n = csr.num_vertices();
  constexpr int kProducers = 3;
  auto replacement_for = [n](VertexId v) {
    return static_cast<VertexId>((v * 2654435761u + 17) % n);
  };
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int prod = 0; prod < kProducers; ++prod) {
    producers.emplace_back([&, prod] {
      const VertexId begin = n * prod / kProducers;
      const VertexId end = n * (prod + 1) / kProducers;
      ingest::UpdateBatch batch;
      for (VertexId v = begin; v < end; ++v) {
        if (csr.out_degree(v) == 0) continue;
        batch.push_back(ingest::EdgeUpdate::Remove(v, csr.neighbors(v)[0]));
        batch.push_back(ingest::EdgeUpdate::Insert(v, replacement_for(v)));
        if (batch.size() >= 16) {
          Status status = stream->Append(batch);
          GTS_CHECK(status.ok()) << status.ToString();
          batch.clear();
        }
      }
      if (!batch.empty()) {
        Status status = stream->Append(batch);
        GTS_CHECK(status.ok()) << status.ToString();
      }
    });
  }

  // Clients keep traversals flowing through publish safe points while the
  // producers churn. Mid-churn levels are some consistent snapshot's --
  // only completion is asserted here; exactness is checked post-quiesce.
  constexpr int kClients = 2;
  constexpr int kRounds = 4;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        BfsKernel kernel(n, /*source=*/static_cast<VertexId>(c));
        JobOptions job;
        job.source = static_cast<VertexId>(c);
        job.pin_graph_version = (c == 0);
        JobHandle handle = engine.scheduler().Submit(&kernel, job);
        auto report = handle.Wait();
        GTS_CHECK(report.ok()) << report.status().ToString();
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : clients) t.join();

  ASSERT_TRUE(engine.scheduler().QuiesceIngest().ok());
  EXPECT_EQ(stream->SnapshotStats().updates_rejected, 0u);

  // Replay the same rewiring on the edge list (delete = first matching
  // occurrence, insert = append) and compare a full BFS.
  std::vector<Edge>& updated = edges.edges();
  for (VertexId v = 0; v < n; ++v) {
    if (csr.out_degree(v) == 0) continue;
    const Edge victim{v, csr.neighbors(v)[0]};
    auto it = std::find(updated.begin(), updated.end(), victim);
    ASSERT_NE(it, updated.end());
    updated.erase(it);
    updated.push_back({v, replacement_for(v)});
  }
  const CsrGraph updated_csr = CsrGraph::FromEdgeList(edges);
  VertexId source = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (updated_csr.out_degree(v) > updated_csr.out_degree(source)) source = v;
  }
  auto bfs = RunBfsGts(engine, source);
  ASSERT_TRUE(bfs.ok()) << bfs.status();
  const auto expected = ReferenceBfs(updated_csr, source);
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t want = expected[v] == kUnreachedLevel
                              ? BfsKernel::kUnvisited
                              : expected[v];
    ASSERT_EQ(bfs->levels[v], want) << "vertex " << v;
  }
}

}  // namespace
}  // namespace gts
