// Dispatch-pipeline page-order sweep: BFS under LRU cache pressure (the
// Figure 11 churn regime, where eviction order actually matters) with every
// page-order policy. Two things must show:
//
//  1. Results are invariant -- BFS levels are bit-identical across all
//     orders (the pipeline only reorders work, never changes it); a
//     diverging order fails the bench.
//  2. The orders move the dial they claim to move: cache-affinity lifts
//     the LRU hit rate over the default order.
//
// Stream choice is the per-GPU round-robin cursor. The sweep used to carry
// two more dispatch variants that only lost: in quick mode (3 runs,
// identical levels in every cell) the "sticky" stream policy took 6.4-6.6
// paper-s against round-robin's 2.5-2.6 on every page order, and
// worker-claim ("pull") dispatch with work stealing took 6.5-6.6 paper-s
// against push's 2.6, varying from run to run and no faster on the host
// (0.017-0.041 s against 0.014-0.021 s inline). Both were removed.
//
// With --trace_out=FILE each configuration's op timeline is exported to one
// Chrome-trace process, tagged with its policy name via trace metadata.
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
      PageOrderKind::kCacheAffinity, PageOrderKind::kFrontierDensity};

  obs::TraceExporter exporter;
  int pid_base = 0;
  std::vector<std::vector<std::string>> rows;
  for (int scale = 26; scale <= max_scale; ++scale) {
    DatasetSpec spec = RmatSpec(scale);
    auto prepared = Prepare(spec);
    if (!prepared.ok()) continue;
    auto store = MakeInMemoryStore(&prepared->paged);
    const VertexId source = BusySource(prepared->csr);

    // Cache far below the working set: the LRU churn regime where the
    // page-visit order decides the hit rate.
    const uint64_t cache = 1 * kMiB;
    std::vector<uint16_t> reference_levels;
    for (PageOrderKind order : orders) {
      GtsOptions opts;
      opts.cache_policy = CachePolicy::kLru;
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

      const auto snapshot = engine.metrics_registry()->Snapshot();
      auto counter = [&](const char* name) -> uint64_t {
        auto it = snapshot.find(name);
        return it == snapshot.end() ? 0 : it->second.count;
      };
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.0f%%",
                    100.0 * bfs->report.metrics.cache_hit_rate());
      row.push_back(Cell(PaperSeconds(bfs->report.metrics.sim_seconds)));
      row.push_back(buf);
      row.push_back(std::to_string(counter("dispatch.order.cached_first")));
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
      "Dispatch policy sweep: BFS under LRU churn (page order; identical "
      "results, different schedules)",
      {"data", "order", "paper-s", "hit rate", "cached-first"}, rows);
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
