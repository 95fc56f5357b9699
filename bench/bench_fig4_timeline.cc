// Regenerates Figure 4: the actual timeline of copy operations ('=') and
// kernel executions ('#') per stream, for BFS and PageRank with 16
// streams. BFS lanes are sparse (transfer-heavy); PageRank lanes are dense
// (compute-heavy) -- the paper's visual contrast.
//
// With --trace_out=FILE the same two timelines are also exported as Chrome
// trace_event JSON (BFS at pid 0+, PageRank at pid 100+), viewable in
// chrome://tracing or https://ui.perfetto.dev.
#include "bench_common.h"

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "core/job/job_scheduler.h"
#include "gpu/schedule.h"

namespace gts {
namespace bench {
namespace {

int Main() {
  DatasetSpec spec = RmatSpec(27);
  auto prepared = Prepare(spec);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  // Two simulated SSDs (the paper's streaming setting) so the timeline --
  // and the --trace_out export -- shows the full pipeline: storage fetch
  // -> copy engine -> kernel lanes.
  auto store = MakeSsdStore(&prepared->paged, /*n=*/2,
                            prepared->paged.TotalTopologyBytes() / 5);
  GtsOptions opts;
  opts.num_streams = 16;
  opts.keep_timeline = true;
  MachineConfig machine = MachineConfig::PaperScaled(1);
  GtsEngine engine(&prepared->paged, store.get(), machine, opts);

  std::printf("Figure 4: stream timelines on %s* (16 streams; '=' copy, "
              "'#' kernel, '-' storage fetch)\n",
              spec.name.c_str());

  auto bfs = RunBfsGts(engine, BusySource(prepared->csr));
  if (!bfs.ok()) {
    std::fprintf(stderr, "BFS failed: %s\n", bfs.status().ToString().c_str());
    return 1;
  }
  std::printf("\n(a) Streaming for BFS\n");
  std::printf("%s", gpu::RenderTimelineAscii(bfs->report.metrics.timeline, 100).c_str());

  PageRankKernel kernel(prepared->csr.num_vertices());
  kernel.BeginIteration();
  auto pr = engine.scheduler().Submit(&kernel).Wait();
  if (!pr.ok()) {
    std::fprintf(stderr, "PR failed: %s\n", pr.status().ToString().c_str());
    return 1;
  }
  std::printf("\n(b) Streaming for PageRank\n");
  std::printf("%s", gpu::RenderTimelineAscii(pr->metrics.timeline, 100).c_str());

  // The paper's visual contrast (PageRank lanes denser with kernel work
  // than BFS) quantified: kernel-busy to transfer-busy seconds.
  std::printf("\nBusy seconds   transfer    kernel\n");
  std::printf("BFS            %8.6f  %8.6f\n", bfs->report.metrics.transfer_busy,
              bfs->report.metrics.kernel_busy);
  std::printf("PageRank(1it)  %8.6f  %8.6f\n", pr->metrics.transfer_busy,
              pr->metrics.kernel_busy);

  obs::TraceExporter exporter;
  exporter.AddRun(bfs->report.metrics.timeline,
                  obs::TraceRunOptions{"BFS", /*pid_base=*/0});
  exporter.AddRun(pr->metrics.timeline,
                  obs::TraceRunOptions{"PageRank", /*pid_base=*/100});
  WriteObsArtifacts(exporter, engine.metrics_registry()->Snapshot());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gts

int main(int argc, char** argv) {
  gts::bench::InitBenchArgs(argc, argv);
  return gts::bench::Main();
}
