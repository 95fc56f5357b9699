// Regenerates Figure 11: effectiveness of the device page cache for BFS --
// (a) elapsed time and (b) hit rate while sweeping the cache size. The
// paper sweeps 32 MB..5120 MB on a 12 GB GPU; at 1/1024 scale the sweep is
// 32 KiB..5 MiB on a 12 MiB GPU. The cache never evicts (DESIGN.md §6.2;
// EXPERIMENTS.md records the LRU/FIFO hit rates it replaced).
#include "bench_common.h"

#include "algorithms/bfs.h"

namespace gts {
namespace bench {
namespace {

int Main() {
  const int max_scale = QuickMode() ? 27 : 29;
  const std::vector<uint64_t> cache_sizes = {32 * kKiB, 1 * kMiB, 2 * kMiB,
                                             3 * kMiB, 4 * kMiB, 5 * kMiB};

  std::vector<std::vector<std::string>> time_rows;
  std::vector<std::vector<std::string>> hit_rows;
  for (int scale = 26; scale <= max_scale; ++scale) {
    DatasetSpec spec = RmatSpec(scale);
    auto prepared = Prepare(spec);
    if (!prepared.ok()) continue;
    auto store = MakeInMemoryStore(&prepared->paged);
    const VertexId source = BusySource(prepared->csr);

    std::vector<std::string> time_row{spec.name + "*"};
    std::vector<std::string> hit_row{spec.name + "*"};
    for (uint64_t cache : cache_sizes) {
      GtsOptions opts;
      opts.cache_bytes = cache;
      MachineConfig machine = MachineConfig::PaperScaled(2);
      GtsEngine engine(&prepared->paged, store.get(), machine, opts);
      auto bfs = RunBfsGts(engine, source);
      std::string pct = "-";
      if (bfs.ok()) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "%.0f%%",
                      100.0 * bfs->report.metrics.cache_hit_rate());
        pct = buf;
      }
      time_row.push_back(
          bfs.ok() ? Cell(PaperSeconds(bfs->report.metrics.sim_seconds))
                   : StatusCell(bfs.status()));
      hit_row.push_back(pct);
      std::fflush(stdout);
    }
    time_rows.push_back(std::move(time_row));
    hit_rows.push_back(std::move(hit_row));
  }

  std::vector<std::string> headers{"data"};
  for (uint64_t c : cache_sizes) {
    headers.push_back(FormatBytes(c) + " (=" +
                      std::to_string(c * kReproScale / kMiB) + "MB)");
  }
  PrintTable("Figure 11(a): BFS paper-scale seconds vs cache size", headers,
             time_rows);
  PrintTable(
      "Figure 11(b): cache hit rate vs cache size (pinned resident set; "
      "linear ~B/(S+L) like the paper)",
      headers, hit_rows);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gts

int main(int argc, char** argv) {
  gts::bench::InitBenchArgs(argc, argv);
  return gts::bench::Main();
}
