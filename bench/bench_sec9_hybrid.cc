// Section 9 / related-work closing remark, made measurable: "hybrid
// computation using both CPUs and GPUs potentially will be superior to
// GTS using only GPUs". Sweeps the fraction of the page stream the host
// CPUs co-process (0 = the paper's GTS) for BFS and PageRank, in-memory
// and from SSDs, and reports where (or whether) the hybrid wins.
//
// The gate: cpu_assist_fraction is kept because it wins somewhere, so
// the bench exits 1 unless, on both in-memory rows, some CPU share above
// 0 takes fewer simulated seconds than 0%. Both SSD rows only lose.
#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "bench_common.h"

namespace gts {
namespace bench {
namespace {

int Main() {
  const int scale = QuickMode() ? 27 : 29;
  const int pr_iters = QuickMode() ? 2 : 10;
  const std::vector<double> fractions = {0.0, 0.05, 0.1, 0.2, 0.4, 0.6};

  DatasetSpec spec = RmatSpec(scale);
  auto prepared = Prepare(spec);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  const VertexId source = BusySource(prepared->csr);

  std::vector<std::string> headers{"setting"};
  for (double f : fractions) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "cpu=%.0f%%", 100 * f);
    headers.push_back(buf);
  }

  std::vector<std::vector<std::string>> rows;
  // Simulated seconds of the in-memory rows per fraction (infinity for
  // a failed run), the gate's input.
  std::vector<double> bfs_mem, pr_mem;
  for (const bool ssd : {false, true}) {
    std::vector<std::string> bfs_row{std::string(ssd ? "BFS, 2 SSDs"
                                                     : "BFS, in-memory")};
    std::vector<std::string> pr_row{std::string(ssd ? "PageRank, 2 SSDs"
                                                    : "PageRank, in-memory")};
    for (double fraction : fractions) {
      auto store = ssd ? MakeSsdStore(&prepared->paged, 2,
                                      prepared->paged.TotalTopologyBytes() / 5)
                       : MakeInMemoryStore(&prepared->paged);
      GtsOptions opts;
      opts.cpu_assist_fraction = fraction;
      GtsEngine engine(&prepared->paged, store.get(),
                       MachineConfig::PaperScaled(2), opts);
      auto bfs = RunBfsGts(engine, source);
      bfs_row.push_back(bfs.ok() ? Cell(PaperSeconds(bfs->report.metrics.sim_seconds))
                                 : StatusCell(bfs.status()));
      auto pr = RunPageRankGts(engine, {.iterations = pr_iters});
      pr_row.push_back(pr.ok() ? Cell(PaperSeconds(pr->report.metrics.sim_seconds))
                               : StatusCell(pr.status()));
      if (!ssd) {
        constexpr double kFailed = std::numeric_limits<double>::infinity();
        bfs_mem.push_back(bfs.ok() ? bfs->report.metrics.sim_seconds
                                   : kFailed);
        pr_mem.push_back(pr.ok() ? pr->report.metrics.sim_seconds : kFailed);
      }
      std::fflush(stdout);
    }
    rows.push_back(std::move(bfs_row));
    rows.push_back(std::move(pr_row));
  }

  PrintTable(
      "Section 9 extension: hybrid CPU co-processing of the page stream on " +
          spec.name + "* (paper-scale seconds; cpu=0% is the paper's GTS)",
      headers, rows);
  std::printf(
      "\nReading: a small CPU share removes PCI-E transfers at little cost;\n"
      "past the crossover the 16 host cores become the bottleneck. This is\n"
      "the trade-off behind the paper's closing conjecture (Section 8).\n");

  std::printf("\n");
  bool gate_ok = true;
  for (const auto& [name, seconds] :
       {std::pair{"BFS, in-memory", &bfs_mem},
        std::pair{"PageRank, in-memory", &pr_mem}}) {
    const auto best = std::min_element(seconds->begin(), seconds->end());
    const size_t i = static_cast<size_t>(best - seconds->begin());
    if (!std::isfinite((*seconds)[0]) || i == 0) {
      std::fprintf(stderr,
                   "FAIL: %s: no CPU share is faster than cpu=0%% "
                   "(%.4f paper-s)\n",
                   name, PaperSeconds((*seconds)[0]));
      gate_ok = false;
      continue;
    }
    std::printf("%s: cpu=%.0f%% beats cpu=0%%: %.4f -> %.4f paper-s\n", name,
                100 * fractions[i], PaperSeconds((*seconds)[0]),
                PaperSeconds(*best));
  }
  return gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace gts

int main(int argc, char** argv) {
  gts::bench::InitBenchArgs(argc, argv);
  return gts::bench::Main();
}
