// gts::obs invariants: registry semantics, deterministic Chrome trace
// export, the OpKind -> trace-phase schema, and the profiling hooks.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "core/engine.h"
#include "core/job/job_scheduler.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "storage/page_builder.h"
#include "storage/page_store.h"

namespace gts {
namespace {

// ------------------------------------------------------------- registry

TEST(MetricsRegistryTest, HandlesAreStableAndShared) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.GetCounter("cache.hits");
  obs::Counter& b = registry.GetCounter("cache.hits");
  EXPECT_EQ(&a, &b);  // one name, one handle

  a.Add();
  b.Add(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(registry.size(), 1u);

  // Handles stay valid as unrelated registrations grow the map.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler." + std::to_string(i));
  }
  a.Add();
  EXPECT_EQ(b.value(), 6u);
}

TEST(MetricsRegistryTest, KindMismatchAborts) {
  obs::MetricsRegistry registry;
  registry.GetCounter("engine.runs");
  EXPECT_DEATH(registry.GetGauge("engine.runs"), "engine.runs");
  EXPECT_DEATH(registry.GetDistribution("engine.runs"), "engine.runs");
}

TEST(MetricsRegistryTest, SnapshotIsNameSortedAndTyped) {
  obs::MetricsRegistry registry;
  registry.GetGauge("z.gauge").Set(2.5);
  registry.GetCounter("a.counter").Add(7);
  obs::Distribution& dist = registry.GetDistribution("m.dist");
  dist.Record(1.0);
  dist.Record(3.0);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  std::vector<std::string> names;
  for (const auto& [name, value] : snapshot) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"a.counter", "m.dist", "z.gauge"}));

  const obs::MetricValue& counter = snapshot.at("a.counter");
  EXPECT_EQ(counter.kind, obs::MetricValue::Kind::kCounter);
  EXPECT_EQ(counter.count, 7u);

  const obs::MetricValue& gauge = snapshot.at("z.gauge");
  EXPECT_EQ(gauge.kind, obs::MetricValue::Kind::kGauge);
  EXPECT_DOUBLE_EQ(gauge.value, 2.5);

  const obs::MetricValue& d = snapshot.at("m.dist");
  EXPECT_EQ(d.kind, obs::MetricValue::Kind::kDistribution);
  EXPECT_EQ(d.count, 2u);
  EXPECT_DOUBLE_EQ(d.value, 4.0);  // sum
  EXPECT_DOUBLE_EQ(d.min, 1.0);
  EXPECT_DOUBLE_EQ(d.max, 3.0);
}

TEST(MetricsRegistryTest, ConcurrentAddsDoNotLoseCounts) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.GetCounter("hot");
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAdds; ++i) counter.Add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), uint64_t{kThreads} * kAdds);
}

TEST(MetricsJsonTest, DeterministicForASnapshot) {
  obs::MetricsRegistry registry;
  registry.GetCounter("b").Add(2);
  registry.GetGauge("a").Set(0.125);
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  const std::string json = obs::MetricsJson(snapshot);
  EXPECT_EQ(json, obs::MetricsJson(snapshot));
  // "a" (gauge) sorts before "b" (counter) in the rendered object.
  EXPECT_LT(json.find("\"a\""), json.find("\"b\""));
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"gauge\""), std::string::npos);
}

// ----------------------------------------------------------- trace schema

TEST(TraceSchemaTest, EveryOpKindHasAPhase) {
  // Spans occupy a lane ('X', complete event with a duration); barriers
  // are synchronization instants ('i'). New OpKinds must pick one.
  const std::vector<std::pair<gpu::OpKind, char>> schema = {
      {gpu::OpKind::kStorageFetch, 'X'}, {gpu::OpKind::kH2DChunk, 'X'},
      {gpu::OpKind::kH2DStream, 'X'},    {gpu::OpKind::kD2H, 'X'},
      {gpu::OpKind::kP2P, 'X'},          {gpu::OpKind::kKernel, 'X'},
      {gpu::OpKind::kHostCompute, 'X'},  {gpu::OpKind::kBarrier, 'i'},
  };
  for (const auto& [kind, phase] : schema) {
    EXPECT_EQ(obs::TraceEventPhase(kind), phase)
        << "OpKind " << gpu::OpKindName(kind);
  }
}

// ------------------------------------------------- deterministic export

struct EngineFixture {
  EdgeList edges;
  CsrGraph csr;
  PagedGraph paged;
  std::unique_ptr<PageStore> store;

  EngineFixture() {
    RmatParams p;
    p.scale = 9;
    p.edge_factor = 8;
    p.seed = 11;
    edges = std::move(GenerateRmat(p)).ValueOrDie();
    csr = CsrGraph::FromEdgeList(edges);
    paged = std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
    store = MakeInMemoryStore(&paged);
  }

  GtsOptions Options() const {
    GtsOptions opts;
    opts.keep_timeline = true;
    opts.use_stream_threads = false;  // inline execution: deterministic
    return opts;
  }

  VertexId Source() const {
    VertexId best = 0;
    for (VertexId v = 0; v < csr.num_vertices(); ++v) {
      if (csr.out_degree(v) > csr.out_degree(best)) best = v;
    }
    return best;
  }
};

TEST(TraceExportTest, ByteIdenticalAcrossRuns) {
  EngineFixture f;
  MachineConfig machine = MachineConfig::PaperScaled(1);
  machine.device_memory = 32 * kMiB;

  auto run_once = [&]() -> std::string {
    GtsEngine engine(&f.paged, f.store.get(), machine, f.Options());
    auto bfs = RunBfsGts(engine, f.Source());
    EXPECT_TRUE(bfs.ok()) << bfs.status().ToString();
    obs::TraceExporter exporter;
    exporter.AddRun(bfs->report.metrics.timeline,
                    obs::TraceRunOptions{"BFS", /*pid_base=*/0});
    EXPECT_GT(exporter.num_events(), 0u);
    return exporter.ToJson();
  };

  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_EQ(first, second);  // byte-identical under inline execution
}

TEST(TraceExportTest, MultiRunPidBasesDoNotCollide) {
  EngineFixture f;
  MachineConfig machine = MachineConfig::PaperScaled(1);
  machine.device_memory = 32 * kMiB;
  GtsEngine engine(&f.paged, f.store.get(), machine, f.Options());

  auto bfs = RunBfsGts(engine, f.Source());
  ASSERT_TRUE(bfs.ok());
  PageRankKernel kernel(f.csr.num_vertices());
  kernel.BeginIteration();
  auto pr = engine.scheduler().Submit(&kernel).Wait();
  ASSERT_TRUE(pr.ok());

  obs::TraceExporter exporter;
  exporter.AddRun(bfs->report.metrics.timeline,
                  obs::TraceRunOptions{"BFS", /*pid_base=*/0});
  const size_t bfs_events = exporter.num_events();
  exporter.AddRun(pr->metrics.timeline,
                  obs::TraceRunOptions{"PR", /*pid_base=*/100});
  EXPECT_GT(exporter.num_events(), bfs_events);

  const std::string json = exporter.ToJson();
  EXPECT_NE(json.find("\"BFS GPU 0\""), std::string::npos);
  EXPECT_NE(json.find("\"PR GPU 0\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":102"), std::string::npos);  // PR GPU group
}

TEST(TraceExportTest, InstantEventsCarryScopeNotDuration) {
  gpu::ScheduleResult schedule;
  gpu::TimelineOp barrier;
  barrier.kind = gpu::OpKind::kBarrier;
  barrier.start = 1e-6;
  barrier.end = 1e-6;
  schedule.ops.push_back(barrier);
  const std::string json = obs::ChromeTraceJson(schedule, "t");
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"p\""), std::string::npos);
  EXPECT_EQ(json.find("\"dur\""), std::string::npos);
}

// -------------------------------------------------------------- profiling

class VectorSink final : public obs::ProfSink {
 public:
  void OnScope(const char* name, double seconds) override {
    names.push_back(name);
    last_seconds = seconds;
  }
  std::vector<std::string> names;
  double last_seconds = -1.0;
};

TEST(ProfTest, ScopeReportsToInstalledSink) {
  VectorSink sink;
  obs::ProfSink* previous = obs::SetProfSink(&sink);
  {
    GTS_PROF_SCOPE("test.scope");
  }
  obs::SetProfSink(previous);
#if GTS_PROF_ENABLED
  ASSERT_EQ(sink.names.size(), 1u);
  EXPECT_EQ(sink.names[0], "test.scope");
  EXPECT_GE(sink.last_seconds, 0.0);
#else
  EXPECT_TRUE(sink.names.empty());
#endif
}

TEST(ProfTest, NoSinkMeansNoRecording) {
  obs::ProfSink* previous = obs::SetProfSink(nullptr);
  {
    GTS_PROF_SCOPE("test.nosink");  // must be a safe no-op
  }
  obs::SetProfSink(previous);
}

TEST(ProfTest, RegistrySinkRecordsDistributions) {
  obs::MetricsRegistry registry;
  obs::RegistryProfSink sink(&registry);
  obs::ProfSink* previous = obs::SetProfSink(&sink);
  {
    GTS_PROF_SCOPE("unit");
  }
  {
    GTS_PROF_SCOPE("unit");
  }
  obs::SetProfSink(previous);
#if GTS_PROF_ENABLED
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_TRUE(snapshot.count("prof.unit"));
  EXPECT_EQ(snapshot.at("prof.unit").count, 2u);
#endif
}

TEST(ProfTest, EngineRunsRecordProfScopes) {
#if GTS_PROF_ENABLED
  EngineFixture f;
  obs::MetricsRegistry prof_registry;
  obs::RegistryProfSink sink(&prof_registry);
  obs::ProfSink* previous = obs::SetProfSink(&sink);
  MachineConfig machine = MachineConfig::PaperScaled(1);
  machine.device_memory = 32 * kMiB;
  GtsEngine engine(&f.paged, f.store.get(), machine, f.Options());
  auto bfs = RunBfsGts(engine, f.Source());
  obs::SetProfSink(previous);
  ASSERT_TRUE(bfs.ok());
  const obs::MetricsSnapshot snapshot = prof_registry.Snapshot();
  ASSERT_TRUE(snapshot.count("prof.engine.run"));
  EXPECT_GE(snapshot.at("prof.engine.run").count, 1u);
#endif
}

}  // namespace
}  // namespace gts
