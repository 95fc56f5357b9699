// Tests for gts::analysis::sync (DESIGN.md section 16): the instrumented
// lock wrappers + LockRegistry rules (seeded negatives asserting that
// violation reports name both sites), and the sync::Explorer controlled
// scheduler (systematic bounded interleavings of the adopted state
// machines, with replayable decision strings).
//
// Everything substantive requires -DGTS_SYNC_CHECK=ON; the knob-OFF build
// only checks that the wrappers behave like plain mutexes and that
// Explorer::Explore degrades to running the body once.
#include "analysis/sync/sync.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/bfs.h"
#include "analysis/sync/explorer.h"
#include "core/engine.h"
#include "core/job/job_scheduler.h"
#include "core/page_cache.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "ingest/edge_stream.h"
#include "storage/page_builder.h"

#if GTS_SYNC_CHECK_ENABLED
#include "analysis/sync/lock_registry.h"
#endif

namespace gts {
namespace analysis {
namespace sync {
namespace {

// ---------------------------------------------------------------- shared

/// Wrapper smoke test: valid in both knob settings -- the wrappers must be
/// drop-in mutexes regardless of instrumentation.
TEST(SyncWrapperTest, WrappersBehaveLikeMutexes) {
  Mutex m("test.smoke", level::kUnordered);
  int counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        Lock lock(m);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, 400);

  Mutex m2("test.smoke_cv", level::kUnordered);
  CondVar cv;
  bool flag = false;
  std::thread notifier([&] {
    Lock lock(m2);
    flag = true;
    cv.notify_all();
  });
  {
    UniqueLock lk(m2);
    cv.wait(lk, [&] { return flag; });
  }
  notifier.join();
  EXPECT_TRUE(flag);
}

TEST(ExplorerTest, OffOrOnExploreRunsBody) {
  // OFF: runs once, unserialized. ON: explores (a race-free body passes).
  Explorer ex;
  int bodies = 0;
  Explorer::Result result = ex.Explore([&](Explorer& e) {
    ++bodies;
    int local = 0;
    e.Run({[&] { ++local; }});
    e.Check(local == 1, "thunk did not run");
  });
  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_GE(bodies, 1);
  EXPECT_EQ(result.schedules_run, bodies);
}

#if !GTS_SYNC_CHECK_ENABLED

TEST(SyncRegistryTest, CompiledOut) {
  GTEST_SKIP() << "lock-order registry requires -DGTS_SYNC_CHECK=ON";
}

#else  // GTS_SYNC_CHECK_ENABLED

// ------------------------------------------------- seeded lock negatives

/// Fresh registry window for a seeded-negative test: forgets the order
/// graph built by other tests and drains pending violations.
void ResetRegistry() {
  LockRegistry::Global().ResetForTest();
  (void)LockRegistry::Global().TakeViolations();
}

const LockOrderViolation* FindRule(
    const std::vector<LockOrderViolation>& violations,
    const std::string& rule) {
  for (const LockOrderViolation& v : violations) {
    if (v.rule == rule) return &v;
  }
  return nullptr;
}

TEST(SyncRegistryTest, TwoLockInversionReportsCycleNamingBothSites) {
  ResetRegistry();
  ScopedExpectViolations expect;
  Mutex a("test.cycle_a", level::kUnordered);
  Mutex b("test.cycle_b", level::kUnordered);
  {
    Lock la(a);
    Lock lb(b);  // edge cycle_a -> cycle_b
  }
  {
    Lock lb(b);
    Lock la(a);  // edge cycle_b -> cycle_a closes the cycle
  }
  LockRegistry::Drain drain = LockRegistry::Global().TakeViolations();
  const LockOrderViolation* v =
      FindRule(drain.violations, "lock-order-cycle");
  ASSERT_NE(v, nullptr) << "cycle not reported";
  // The report names both sites of the inverted pair...
  EXPECT_EQ(v->first_site, "test.cycle_b");
  EXPECT_EQ(v->second_site, "test.cycle_a");
  // ...and the detail carries both acquisition stacks' sites.
  EXPECT_NE(v->detail.find("test.cycle_a"), std::string::npos) << v->detail;
  EXPECT_NE(v->detail.find("test.cycle_b"), std::string::npos) << v->detail;
}

TEST(SyncRegistryTest, LockLevelViolationNamesBothSites) {
  ResetRegistry();
  ScopedExpectViolations expect;
  Mutex hi("test.level_hi", 50);
  Mutex lo("test.level_lo", 10);
  {
    Lock lh(hi);
    Lock ll(lo);  // 10 <= 50: declared order requires increasing levels
  }
  LockRegistry::Drain drain = LockRegistry::Global().TakeViolations();
  const LockOrderViolation* v = FindRule(drain.violations, "lock-level");
  ASSERT_NE(v, nullptr) << "level violation not reported";
  EXPECT_EQ(v->first_site, "test.level_hi");
  EXPECT_EQ(v->second_site, "test.level_lo");
}

TEST(SyncRegistryTest, SelfDeadlockIsReportedAndDegradesToReentrant) {
  ResetRegistry();
  ScopedExpectViolations expect;
  Mutex m("test.self", level::kUnordered);
  m.lock();
  m.lock();  // would hang on a plain std::mutex
  m.unlock();
  m.unlock();
  LockRegistry::Drain drain = LockRegistry::Global().TakeViolations();
  const LockOrderViolation* v = FindRule(drain.violations, "self-deadlock");
  ASSERT_NE(v, nullptr) << "self-deadlock not reported";
  EXPECT_EQ(v->first_site, "test.self");
  EXPECT_EQ(v->second_site, "test.self");
}

TEST(SyncRegistryTest, WaitWhileHoldingIsReported) {
  ResetRegistry();
  ScopedExpectViolations expect;
  Mutex outer("test.wwh_outer", level::kUnordered);
  Mutex inner("test.wwh_inner", level::kUnordered);
  CondVar cv;
  bool flag = false;
  std::thread notifier([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Lock lk(inner);
    flag = true;
    cv.notify_all();
  });
  {
    Lock lo(outer);  // held across the wait: nested-monitor shape
    UniqueLock lk(inner);
    cv.wait(lk, [&] { return flag; });
  }
  notifier.join();
  LockRegistry::Drain drain = LockRegistry::Global().TakeViolations();
  const LockOrderViolation* v =
      FindRule(drain.violations, "wait-while-holding");
  ASSERT_NE(v, nullptr) << "wait-while-holding not reported";
  EXPECT_EQ(v->first_site, "test.wwh_outer");
  EXPECT_EQ(v->second_site, "test.wwh_inner");
}

TEST(SyncRegistryTest, PinHeldAcrossSafePointIsReported) {
  ResetRegistry();
  ScopedExpectViolations expect;
  const std::thread::id owner = LockRegistry::Global().NotePinAcquired();
  LockRegistry::Global().NoteSafePoint("test-safe-point");
  LockRegistry::Global().NotePinReleased(owner);
  LockRegistry::Drain drain = LockRegistry::Global().TakeViolations();
  const LockOrderViolation* v =
      FindRule(drain.violations, "pin-across-safe-point");
  ASSERT_NE(v, nullptr) << "pin-across-safe-point not reported";
  EXPECT_NE(v->detail.find("test-safe-point"), std::string::npos)
      << v->detail;
}

TEST(SyncRegistryTest, CleanNestingReportsNothing) {
  ResetRegistry();
  Mutex lo("test.clean_lo", 10);
  Mutex hi("test.clean_hi", 50);
  for (int i = 0; i < 3; ++i) {
    Lock ll(lo);
    Lock lh(hi);  // increasing levels: legal
  }
  LockRegistry::Drain drain = LockRegistry::Global().TakeViolations();
  EXPECT_TRUE(drain.violations.empty());
  EXPECT_EQ(drain.violations_detected, 0u);
  EXPECT_GE(drain.acquisitions, 6u);
}

// --------------------------------------------- explorer: toy seeded bug

/// Two threads increment a shared counter with the read and the write in
/// *separate* critical sections -- the classic lost update. The explorer
/// must find an interleaving where an increment is lost, and the failing
/// schedule's decision string must replay to the same failure.
TEST(ExplorerTest, FindsSeededLostUpdateAndReplayReproducesIt) {
  auto body = [](Explorer& e) {
    // static: one site registration; fresh value per schedule.
    static Mutex m("test.lost_update", level::kUnordered);
    int value = 0;
    auto racy_increment = [&] {
      int seen = 0;
      {
        Lock l(m);
        seen = value;
      }
      {
        Lock l(m);
        value = seen + 1;
      }
    };
    e.Run({racy_increment, racy_increment});
    e.Check(value == 2, "lost update: value=" + std::to_string(value));
  };

  Explorer::Options opt;
  opt.max_schedules = 200;
  Explorer ex(opt);
  Explorer::Result found = ex.Explore(body);
  ASSERT_FALSE(found.ok()) << "explorer missed the seeded lost update";
  const std::string schedule = found.failures[0].schedule;
  ASSERT_FALSE(schedule.empty());

  // Replaying the pinned decision string deterministically reproduces
  // exactly that failure in exactly one run.
  Explorer::Options replay;
  replay.replay = schedule;
  Explorer rex(replay);
  Explorer::Result replayed = rex.Explore(body);
  EXPECT_EQ(replayed.schedules_run, 1);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.failures[0].schedule, schedule);
}

TEST(ExplorerTest, DeadlockAmongManagedThreadsIsReported) {
  auto body = [](Explorer& e) {
    static Mutex a("test.dl_a", level::kUnordered);
    static Mutex b("test.dl_b", level::kUnordered);
    ScopedExpectViolations expect;  // the registry also flags the cycle
    e.Run({[&] {
             Lock la(a);
             Lock lb(b);
           },
           [&] {
             Lock lb(b);
             Lock la(a);
           }});
  };
  Explorer::Options opt;
  opt.max_schedules = 200;
  Explorer ex(opt);
  Explorer::Result result = ex.Explore(body);
  (void)LockRegistry::Global().TakeViolations();  // drop the seeded cycle
  ASSERT_FALSE(result.ok()) << "explorer missed the 2-lock deadlock";
  bool named = false;
  for (const Explorer::Failure& f : result.failures) {
    if (f.message.find("deadlock") != std::string::npos) named = true;
  }
  EXPECT_TRUE(named) << result.ToString();
}

// ------------------------------------- explorer: adopted state machines

/// Replays `schedule` (captured from a passing exploration) against the
/// same body: the decision string must drive exactly one run to the same
/// clean outcome. The per-machine replay regression.
void ExpectCleanReplay(const std::function<void(Explorer&)>& body,
                       const std::string& schedule) {
  ASSERT_FALSE(schedule.empty());
  Explorer::Options opt;
  opt.replay = schedule;
  Explorer ex(opt);
  Explorer::Result result = ex.Explore(body);
  EXPECT_EQ(result.schedules_run, 1);
  EXPECT_TRUE(result.ok()) << result.ToString();
}

/// PageCache pin/evict/invalidate: a pinner, an inserter driving
/// eviction, and an invalidator race; pinned data must stay readable and
/// pins must balance (the cache destructor aborts otherwise).
TEST(ExplorerMachineTest, PageCachePinEvictInvalidate) {
  const uint64_t kPage = 256;
  std::vector<uint8_t> bytes(kPage, 0xAB);
  auto body = [&](Explorer& e) {
    gpu::Device device(0, /*memory_capacity=*/64 * 1024);
    PageCache cache(&device, /*capacity_bytes=*/3 * kPage, kPage,
                    CachePolicy::kLru);
    ASSERT_TRUE(cache.Insert(0, bytes.data()).ok());
    ASSERT_TRUE(cache.Insert(1, bytes.data()).ok());
    bool pinned_data_ok = true;
    e.Run({[&] {  // pinner
             for (int i = 0; i < 2; ++i) {
               PageCache::Pin pin = cache.Lookup(0);
               if (pin.valid() && pin.data()[0] != 0xAB) {
                 pinned_data_ok = false;
               }
             }
           },
           [&] {  // inserter: overflows capacity, drives eviction
             (void)cache.Insert(2, bytes.data());
             (void)cache.Insert(3, bytes.data());
           },
           [&] {  // invalidator: races the pinner's lease on page 0
             (void)cache.Invalidate(0);
             (void)cache.Invalidate(1);
           }});
    e.Check(pinned_data_ok, "pinned page bytes changed under the lease");
    e.Check(cache.pinned() == 0, "pin leaked");
    e.Check(!cache.Contains(0), "invalidated page still resident");
  };

  Explorer::Options opt;
  opt.max_schedules = 2500;
  Explorer ex(opt);
  Explorer::Result result = ex.Explore(body);
  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_GE(result.distinct_schedules, 1000) << result.ToString();
  ExpectCleanReplay(body, ex.current_schedule());
}

/// gts::ingest publish/compact vs. query overlay: a producer appends,
/// the safe-point thread publishes (inline compaction), and a reader
/// queries the published state throughout.
TEST(ExplorerMachineTest, IngestPublishVersusQueryOverlay) {
  EdgeList list;
  list.set_num_vertices(8);
  for (VertexId v = 0; v + 1 < 8; ++v) list.Add(v, v + 1);
  CsrGraph csr = CsrGraph::FromEdgeList(list);
  PagedGraph paged =
      std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();

  auto body = [&](Explorer& e) {
    ingest::EdgeStream::Env env;
    env.graph = &paged;
    env.options.gutter_capacity = 2;
    ingest::EdgeStream stream(env);
    e.Run({[&] {  // producer
             ingest::UpdateBatch batch;
             batch.push_back({0, 5, false});
             batch.push_back({0, 6, false});
             ASSERT_TRUE(stream.Append(batch).ok());
             batch.clear();
             batch.push_back({1, 7, false});
             ASSERT_TRUE(stream.Append(batch).ok());
           },
           [&] {  // safe-point publisher
             stream.FlushGutters();
             (void)stream.Publish();
           },
           [&] {  // query-side reader against the published state
             (void)stream.HasDeltas(0);
             (void)stream.CurrentNeighbors(0);
             (void)stream.PageVersion(0);
           }});
    // Whatever interleaving ran, a final flush+publish must leave no
    // buffered updates and all three inserts visible.
    stream.FlushGutters();
    (void)stream.Publish();
    e.Check(stream.BufferedUpdates() == 0, "updates stranded in gutters");
    const std::vector<VertexId> n0 = stream.CurrentNeighbors(0);
    e.Check(std::count(n0.begin(), n0.end(), 5) == 1 &&
                std::count(n0.begin(), n0.end(), 6) == 1,
            "published inserts not visible to queries");
  };

  Explorer::Options opt;
  opt.max_schedules = 2500;
  Explorer ex(opt);
  Explorer::Result result = ex.Explore(body);
  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_GE(result.distinct_schedules, 1000) << result.ToString();
  ExpectCleanReplay(body, ex.current_schedule());
}

/// JobScheduler batch formation/cancel: two clients submit concurrently
/// (driver-role handoff decides who runs the batch) while one handle may
/// be cancelled before its batch forms.
TEST(ExplorerMachineTest, JobSchedulerBatchFormationAndCancel) {
  RmatParams p;
  p.scale = 7;
  p.edge_factor = 4;
  p.seed = 5;
  EdgeList edges = std::move(GenerateRmat(p)).ValueOrDie();
  CsrGraph csr = CsrGraph::FromEdgeList(edges);
  PagedGraph paged =
      std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
  std::unique_ptr<PageStore> store = MakeInMemoryStore(&paged);
  MachineConfig machine = MachineConfig::PaperScaled(1);
  machine.device_memory = 32 * kMiB;

  auto body = [&](Explorer& e) {
    GtsEngine engine(&paged, store.get(), machine, GtsOptions{});
    BfsKernel kernel_a(csr.num_vertices(), 0);
    BfsKernel kernel_b(csr.num_vertices(), 0);
    Status status_a, status_b;
    e.Run({[&] {
             JobOptions job;
             job.source = 0;
             JobHandle h = engine.scheduler().Submit(&kernel_a, job);
             status_a = h.Wait().status();
           },
           [&] {
             JobOptions job;
             job.source = 0;
             JobHandle h = engine.scheduler().Submit(&kernel_b, job);
             h.Cancel();  // may land before or after batch formation
             status_b = h.Wait().status();
           }});
    e.Check(status_a.ok(), "uncancelled job failed: " + status_a.ToString());
    e.Check(status_b.ok() || status_b.code() == StatusCode::kCancelled,
            "cancelled job neither completed nor cancelled: " +
                status_b.ToString());
    e.Check(engine.scheduler().queued_jobs() == 0, "job stranded in queue");
  };

  Explorer::Options opt;
  opt.max_schedules = 1200;
  Explorer ex(opt);
  Explorer::Result result = ex.Explore(body);
  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_GE(result.distinct_schedules, 1000) << result.ToString();
  ExpectCleanReplay(body, ex.current_schedule());
}

#endif  // GTS_SYNC_CHECK_ENABLED

}  // namespace
}  // namespace sync
}  // namespace analysis
}  // namespace gts
