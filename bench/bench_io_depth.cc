// Sequential-merge sweep of the gts::io read path: BFS under every page
// order, with io.merge_sequential off (fifo: every read pays the full
// ReadCost) and on, over an HDD-like and an SSD-like two-device store,
// MMBuf at 20% of the topology. Prints each run's makespan next to its
// storage-busy time (paper-scale seconds) and the merged-read count.
//
// The gate: on the latency-bound HDD profile under the default sp-then-lp
// order, merging must make the BFS makespan strictly shorter -- the one
// row where merge_sequential has to pay for itself.
//
// With --trace_out=FILE the gated merge_sequential HDD run is exported as
// Chrome trace JSON; with --metrics_out=FILE the engine registry snapshot
// of that run is written.
#include "bench_common.h"

#include "algorithms/bfs.h"

namespace gts {
namespace bench {
namespace {

int Main() {
  DatasetSpec spec = RmatSpec(QuickMode() ? 26 : 27);
  auto prepared = Prepare(spec);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  const VertexId source = BusySource(prepared->csr);
  const uint64_t mmbuf = prepared->paged.TotalTopologyBytes() / 5;

  const std::vector<PageOrderKind> orders = {
      PageOrderKind::kSpThenLp, PageOrderKind::kInterleaved,
      PageOrderKind::kCacheAffinity, PageOrderKind::kFrontierDensity};

  obs::TraceExporter exporter;
  obs::MetricsSnapshot last_snapshot;

  struct Profile {
    const char* name;
    bool hdd;
  };
  for (const Profile profile : {Profile{"HDD", true}, Profile{"SSD", false}}) {
    std::vector<std::vector<std::string>> rows;
    // makespan[merge] under sp-then-lp, the gated order.
    SimTime gated_makespan[2] = {0.0, 0.0};
    for (PageOrderKind order : orders) {
      std::vector<std::string> row{std::string(PageOrderKindName(order))};
      for (bool merge : {false, true}) {
        // Fresh store per configuration: every run starts from a cold
        // MMBuf, so the sweep compares schedules, not warm-up luck.
        auto store = profile.hdd
                         ? MakeHddStore(&prepared->paged, 2, mmbuf)
                         : MakeSsdStore(&prepared->paged, 2, mmbuf);
        GtsOptions opts;
        opts.io.merge_sequential = merge;
        opts.dispatch.order = order;
        const bool gated = order == PageOrderKind::kSpThenLp;
        const bool export_run = profile.hdd && gated && merge;
        opts.keep_timeline = export_run;
        GtsEngine engine(&prepared->paged, store.get(),
                         MachineConfig::PaperScaled(1), opts);
        auto bfs = RunBfsGts(engine, source);
        if (!bfs.ok()) {
          std::fprintf(stderr, "BFS failed: %s\n",
                       bfs.status().ToString().c_str());
          return 1;
        }
        const RunMetrics& m = bfs->report.metrics;
        if (gated) gated_makespan[merge ? 1 : 0] = m.sim_seconds;
        // Four decimals: merging saves the per-request access latency
        // only, a small slice of a transfer-dominated page read.
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%.4f / %.4f (m:%llu)",
                      PaperSeconds(m.sim_seconds),
                      PaperSeconds(m.storage_busy),
                      static_cast<unsigned long long>(
                          m.io_queue.merged_bursts));
        row.push_back(buf);
        if (export_run) {
          exporter.AddRun(m.timeline,
                          obs::TraceRunOptions{
                              std::string("BFS ") + profile.name +
                                  " sp-then-lp merge_sequential",
                              /*pid_base=*/0});
          last_snapshot = engine.metrics_registry()->Snapshot();
        }
      }
      rows.push_back(std::move(row));
    }

    PrintTable(std::string("sequential-merge sweep, ") + profile.name +
                   " x2, BFS " + spec.name +
                   "* -- makespan / storage-busy paper-scale seconds "
                   "(m: merged reads)",
               {"order", "fifo", "merge_sequential"}, rows);

    const SimTime fifo = gated_makespan[0];
    const SimTime merged = gated_makespan[1];
    std::printf("\n%s sp-then-lp BFS makespan (sim seconds): fifo %.9f -> "
                "merge_sequential %.9f (%s, %.3f%% saved)\n",
                profile.name, fifo, merged,
                merged < fifo ? "improved" : "NOT improved",
                fifo > 0 ? 100.0 * (fifo - merged) / fifo : 0.0);
    if (profile.hdd && merged >= fifo) {
      std::fprintf(stderr,
                   "FAIL: merge_sequential did not shorten the sp-then-lp "
                   "BFS makespan on the HDD profile\n");
      return 1;
    }
  }

  WriteObsArtifacts(exporter, last_snapshot);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gts

int main(int argc, char** argv) {
  gts::bench::InitBenchArgs(argc, argv);
  return gts::bench::Main();
}
