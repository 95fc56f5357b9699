// google-benchmark microbenchmarks for the hot primitives: slotted-page
// encode/decode, page building, R-MAT generation, one kernel pass over a
// graph's pages, the page cache, and the discrete-event scheduler.
#include <benchmark/benchmark.h>

#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "core/frontier.h"
#include "core/kernel.h"
#include "core/page_cache.h"
#include "gpu/device.h"
#include "gpu/schedule.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "storage/page_builder.h"

namespace gts {
namespace {

void BM_EncodeDecodeLE(benchmark::State& state) {
  uint8_t buf[8] = {};
  uint64_t value = 0x123456789abcULL;
  const auto width = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    EncodeLE(buf, value, width);
    benchmark::DoNotOptimize(DecodeLE(buf, width));
    ++value;
  }
}
BENCHMARK(BM_EncodeDecodeLE)->Arg(2)->Arg(3)->Arg(4);

void BM_RmatGenerate(benchmark::State& state) {
  RmatParams p;
  p.scale = static_cast<int>(state.range(0));
  p.edge_factor = 8;
  for (auto _ : state) {
    auto r = GenerateRmat(p);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(p.edge_factor) *
                          (1LL << p.scale));
}
BENCHMARK(BM_RmatGenerate)->Arg(12)->Arg(14)->Unit(benchmark::kMillisecond);

void BM_PageBuild(benchmark::State& state) {
  RmatParams p;
  p.scale = static_cast<int>(state.range(0));
  p.edge_factor = 16;
  EdgeList list = std::move(GenerateRmat(p)).ValueOrDie();
  CsrGraph csr = CsrGraph::FromEdgeList(list);
  for (auto _ : state) {
    auto g = BuildPagedGraph(csr, PageConfig::Small22());
    benchmark::DoNotOptimize(g.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(csr.num_edges()));
}
BENCHMARK(BM_PageBuild)->Arg(12)->Arg(14)->Unit(benchmark::kMillisecond);

/// An RMAT-12 graph (edge factor 16) in (2,2) 4 KiB pages.
PagedGraph Rmat12Pages() {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 16;
  EdgeList list = std::move(GenerateRmat(p)).ValueOrDie();
  CsrGraph csr = CsrGraph::FromEdgeList(list);
  return std::move(BuildPagedGraph(csr, PageConfig::Small22())).ValueOrDie();
}

void BM_PageScan(benchmark::State& state) {
  const PagedGraph g = Rmat12Pages();
  for (auto _ : state) {
    uint64_t sum = 0;
    for (PageId pid = 0; pid < g.num_pages(); ++pid) {
      PageView view = g.view(pid);
      for (uint32_t s = 0; s < view.num_slots(); ++s) {
        const AdjList list = view.adj_list(s);
        for (uint32_t j = 0; j < list.size(); ++j) sum += list[j].pid;
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_PageScan);

// One kernel pass over every page of Rmat12Pages() through the real
// RunSp / RunLp: host cost per edge without the engine around it. Arg 1
// builds the KernelContext of an inline launch (serial WA operations),
// Arg 0 that of a stream thread (atomic ones). Items are the edges the
// pass processed.

/// Runs `kernel` once over every page, streaming RA per page like the
/// engine does.
WorkStats KernelPass(GtsKernel& kernel, const PagedGraph& g,
                     KernelContext ctx) {
  WorkStats total;
  const uint32_t ra_b = kernel.ra_bytes_per_vertex();
  for (PageId pid = 0; pid < g.num_pages(); ++pid) {
    const PageView view = g.view(pid);
    if (ra_b > 0) {
      ctx.ra_start_vid = g.rvt().entry(pid).start_vid;
      ctx.ra = kernel.host_ra() + ctx.ra_start_vid * ra_b;
    }
    total += view.kind() == PageKind::kSmall ? kernel.RunSp(view, ctx)
                                             : kernel.RunLp(view, ctx);
  }
  return total;
}

KernelContext PassContext(const PagedGraph& g, uint8_t* wa, bool serial) {
  KernelContext ctx;
  ctx.rvt = &g.rvt();
  ctx.wa = wa;
  ctx.wa_end = g.num_vertices();
  ctx.serial = serial;
  return ctx;
}

void BM_KernelPassBfs(benchmark::State& state) {
  const PagedGraph g = Rmat12Pages();
  const VertexId n = g.num_vertices();
  BfsKernel kernel(n, 0);
  // Even vertices are the level-0 frontier and odd ones unvisited, so the
  // pass both claims neighbours (CAS) and skips visited ones.
  std::vector<uint16_t> levels(n);
  for (VertexId v = 0; v < n; ++v) {
    levels[v] = v % 2 == 0 ? 0 : BfsKernel::kUnvisited;
  }
  std::vector<uint16_t> wa(n);
  PidSet next(g.num_pages());
  KernelContext ctx = PassContext(g, reinterpret_cast<uint8_t*>(wa.data()),
                                  state.range(0) != 0);
  ctx.next_pid_set = &next;
  int64_t edges = 0;
  for (auto _ : state) {
    wa = levels;
    next.Clear();
    const WorkStats work = KernelPass(kernel, g, ctx);
    benchmark::DoNotOptimize(work);
    benchmark::DoNotOptimize(wa.data());
    benchmark::ClobberMemory();
    edges += static_cast<int64_t>(work.edges_processed);
  }
  state.SetItemsProcessed(edges);
  state.SetLabel(ctx.serial ? "serial" : "atomic");
}
BENCHMARK(BM_KernelPassBfs)->Arg(0)->Arg(1);

void BM_KernelPassPageRank(benchmark::State& state) {
  const PagedGraph g = Rmat12Pages();
  const VertexId n = g.num_vertices();
  PageRankKernel kernel(n);
  kernel.BeginIteration();
  std::vector<float> wa(n);
  const KernelContext ctx = PassContext(
      g, reinterpret_cast<uint8_t*>(wa.data()), state.range(0) != 0);
  int64_t edges = 0;
  for (auto _ : state) {
    kernel.InitDeviceWa(ctx.wa, 0, n);
    const WorkStats work = KernelPass(kernel, g, ctx);
    benchmark::DoNotOptimize(work);
    benchmark::DoNotOptimize(wa.data());
    benchmark::ClobberMemory();
    edges += static_cast<int64_t>(work.edges_processed);
  }
  state.SetItemsProcessed(edges);
  state.SetLabel(ctx.serial ? "serial" : "atomic");
}
BENCHMARK(BM_KernelPassPageRank)->Arg(0)->Arg(1);

void BM_PageCacheLookup(benchmark::State& state) {
  gpu::Device device(0, 64 * kMiB);
  PageCache cache(&device, 32 * kMiB, 4 * kKiB, CachePolicy::kLru);
  std::vector<uint8_t> page(4 * kKiB, 0xAA);
  for (PageId pid = 0; pid < 1000; ++pid) {
    (void)cache.Insert(pid, page.data());
  }
  PageId pid = 0;
  for (auto _ : state) {
    // Measures the full lease cycle: lookup + pin + unpin on Pin
    // destruction (the engine's per-page cost on a cache hit).
    PageCache::Pin pin = cache.Lookup(pid % 1000);
    benchmark::DoNotOptimize(pin.data());
    ++pid;
  }
}
BENCHMARK(BM_PageCacheLookup);

void BM_ScheduleSimulator(benchmark::State& state) {
  TimeModel model;
  const gpu::ResourceId copy{gpu::ResourceId::Type::kCopyEngine, 0};
  const gpu::ResourceId pool{gpu::ResourceId::Type::kKernelPool, 0};
  std::vector<gpu::TimelineOp> ops;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    gpu::TimelineOp h2d;
    h2d.kind = gpu::OpKind::kH2DStream;
    h2d.stream_key = i % 16;
    h2d.resource = copy;
    h2d.duration = 1e-6;
    ops.push_back(h2d);
    gpu::TimelineOp k;
    k.kind = gpu::OpKind::kKernel;
    k.stream_key = i % 16;
    k.resource = pool;
    k.duration = 5e-6;
    ops.push_back(k);
  }
  gpu::ScheduleSimulator sim(model);
  for (auto _ : state) {
    auto result = sim.Run(ops);
    benchmark::DoNotOptimize(result.makespan);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_ScheduleSimulator)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace gts

BENCHMARK_MAIN();
