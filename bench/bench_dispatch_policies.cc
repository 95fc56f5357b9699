// Page-order sweep: BFS with a 1 MiB page cache, far below the working
// set, under every page order. Results must be invariant -- BFS levels
// bit-identical across all orders (an order only reorders work, never
// changes it) -- and the bench fails when they are not.
//
// A `cache-affinity` order (cache-resident pages first within each
// class) was removed with the LRU and FIFO cache policies. It existed to
// reach cached pages before eviction did: in quick mode on RMAT26* it
// took 2.48 paper-s against sp-then-lp's 2.63 under a 1 MiB LRU cache
// (6% against 0% hits), but with the same cache pinned both orders took
// 2.33 paper-s at 12% hits.
//
// Pages go to GPUs by the multi-GPU strategy alone, and the stream is the
// per-GPU round-robin cursor. The engine used to carry a `partition`
// knob beside the strategy. Its one value that added behaviour,
// `degree-balanced` (greedy least-loaded placement by page weight), was
// swept over BFS and 2-iteration PageRank on the RMAT26/27/28 and Twitter
// stand-ins, 1 and 2 GPUs, in memory and from 2 SSDs (MMBuf 20% of the
// topology), pinned and 1 MiB LRU caches, under every page order then
// offered:
//
//  - BFS was 30% (Twitter) to 74% (RMAT28 from 2 SSDs) slower on every
//    2-GPU pinned-cache row. Kernel busy time was identical, but the
//    per-GPU cache hit rate fell from 61% to 33% on RMAT27 and from 45%
//    to 25% on Twitter, so 73% and 37% more pages were streamed: the
//    locality pid striping keeps outweighs the load balance.
//  - Under the 1 MiB LRU cache it beat sp-then-lp by 0.1-0.3% on the RMAT
//    graphs but lost to cache-affinity by 1.3-9.8%.
//  - PageRank stayed within -0.02% and +0.16% of the strategy's route.
//
// The explicit `round-robin` and `replicate` values either equalled the
// strategy's route or were invalid beside it. The knob was removed. The
// sweep also used to carry two more dispatch variants that only lost: in
// quick mode (3 runs, identical levels in every cell) the "sticky" stream
// policy took 6.4-6.6 paper-s against round-robin's 2.5-2.6 on every page
// order, and worker-claim ("pull") dispatch with work stealing took
// 6.5-6.6 paper-s against push's 2.6, varying from run to run and no
// faster on the host (0.017-0.041 s against 0.014-0.021 s inline). Both
// were removed.
//
// With --trace_out=FILE each configuration's op timeline is exported to one
// Chrome-trace process, tagged with its order name via trace metadata.
#include "bench_common.h"

#include "algorithms/bfs.h"
#include "core/dispatch/dispatch_options.h"

namespace gts {
namespace bench {
namespace {

int Main() {
  const int max_scale = QuickMode() ? 26 : 27;
  const std::vector<PageOrderKind> orders = {
      PageOrderKind::kSpThenLp, PageOrderKind::kInterleaved,
      PageOrderKind::kFrontierDensity};

  obs::TraceExporter exporter;
  int pid_base = 0;
  std::vector<std::vector<std::string>> rows;
  for (int scale = 26; scale <= max_scale; ++scale) {
    DatasetSpec spec = RmatSpec(scale);
    auto prepared = Prepare(spec);
    if (!prepared.ok()) continue;
    auto store = MakeInMemoryStore(&prepared->paged);
    const VertexId source = BusySource(prepared->csr);

    // Cache far below the working set, so most pages stream every level.
    const uint64_t cache = 1 * kMiB;
    std::vector<uint16_t> reference_levels;
    for (PageOrderKind order : orders) {
      GtsOptions opts;
      opts.cache_bytes = cache;
      opts.num_streams = 16;
      opts.keep_timeline = !Args().trace_out.empty();
      opts.dispatch.order = order;
      MachineConfig machine = MachineConfig::PaperScaled(1);
      GtsEngine engine(&prepared->paged, store.get(), machine, opts);
      auto bfs = RunBfsGts(engine, source);

      const std::string config(PageOrderKindName(order));
      std::vector<std::string> row{spec.name + "*", config};
      if (!bfs.ok()) {
        row.push_back(StatusCell(bfs.status()));
        rows.push_back(std::move(row));
        continue;
      }

      // Invariance: every order must produce the exact levels the first
      // one did.
      if (reference_levels.empty()) {
        reference_levels = bfs->levels;
      } else if (bfs->levels != reference_levels) {
        std::fprintf(stderr, "FAIL: %s diverged from reference levels\n",
                     config.c_str());
        return 1;
      }

      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.0f%%",
                    100.0 * bfs->report.metrics.cache_hit_rate());
      row.push_back(Cell(PaperSeconds(bfs->report.metrics.sim_seconds)));
      row.push_back(buf);
      rows.push_back(std::move(row));

      if (!Args().trace_out.empty()) {
        exporter.AddRun(bfs->report.metrics.timeline,
                        obs::TraceRunOptions{config, pid_base});
        exporter.AddRunMetadata("dispatch.order", config, pid_base);
        pid_base += 100;
      }
    }
    std::printf("results identical across all %zu page orders\n",
                orders.size());
    std::fflush(stdout);
  }

  PrintTable(
      "Page-order sweep: BFS with a 1 MiB cache (identical results, "
      "different schedules)",
      {"data", "order", "paper-s", "hit rate"}, rows);
  if (!Args().trace_out.empty()) {
    WriteObsArtifacts(exporter, {});
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gts

int main(int argc, char** argv) {
  gts::bench::InitBenchArgs(argc, argv);
  return gts::bench::Main();
}
