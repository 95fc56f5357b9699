// Regenerates Figure 9: Strategy-P vs Strategy-S across storage types
// (in-memory, 2 SSDs, 1 SSD, 2 HDDs) for BFS and PageRank on RMAT30.
// Also prints the multi-GPU speedup rows called out in DESIGN.md
// (mod-hash page placement ablation), and each out-of-core PageRank
// cell's MMBuf hits and device reads in its last iteration. Exits 1
// unless the Strategy-P / 2 SSDs PageRank cell hits MMBuf on at least
// 10% of its page fetches: an MMBuf that a sweep larger than the buffer
// flushes every iteration hits none.
#include "bench_common.h"

#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"

namespace gts {
namespace bench {
namespace {

struct StorageKind {
  std::string name;
  std::function<std::unique_ptr<PageStore>(const PagedGraph*)> make;
};

int Main() {
  const int scale = QuickMode() ? 28 : 30;
  const int pr_iters = QuickMode() ? 2 : 10;
  DatasetSpec spec = RmatSpec(scale);
  auto prepared = Prepare(spec);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  const VertexId source = BusySource(prepared->csr);
  // Out-of-core settings use an MMBuf of 20% of the graph (Section 7.2).
  const uint64_t buffer = prepared->paged.TotalTopologyBytes() / 5;

  const std::vector<StorageKind> storages = {
      {"in-memory", [](const PagedGraph* g) { return MakeInMemoryStore(g); }},
      {"2 SSDs",
       [&](const PagedGraph* g) { return MakeSsdStore(g, 2, buffer); }},
      {"1 SSD",
       [&](const PagedGraph* g) { return MakeSsdStore(g, 1, buffer); }},
      {"2 HDDs",
       [&](const PagedGraph* g) { return MakeHddStore(g, 2, buffer); }},
  };

  std::vector<std::vector<std::string>> bfs_rows;
  std::vector<std::vector<std::string>> pr_rows;
  std::vector<std::vector<std::string>> mmbuf_rows;
  double gated_hit_ratio = -1.0;  // Strategy-P, 2 SSDs
  for (Strategy strategy :
       {Strategy::kPerformance, Strategy::kScalability}) {
    std::vector<std::string> bfs_row{std::string(StrategyName(strategy))};
    std::vector<std::string> pr_row{std::string(StrategyName(strategy))};
    for (const StorageKind& storage : storages) {
      auto store = storage.make(&prepared->paged);
      GtsOptions opts;
      opts.strategy = strategy;
      MachineConfig machine = MachineConfig::PaperScaled(2);
      GtsEngine engine(&prepared->paged, store.get(), machine, opts);

      auto bfs = RunBfsGts(engine, source);
      bfs_row.push_back(bfs.ok() ? Cell(PaperSeconds(bfs->report.metrics.sim_seconds))
                                 : StatusCell(bfs.status()));
      auto pr = RunPageRankGts(engine, {.iterations = pr_iters});
      pr_row.push_back(pr.ok() ? Cell(PaperSeconds(pr->report.metrics.sim_seconds))
                               : StatusCell(pr.status()));
      if (pr.ok() && storage.name != "in-memory") {
        const PageStoreStats& io = pr->iterations.back().io;
        const uint64_t fetches = io.buffer_hits + io.device_reads;
        const double ratio =
            fetches > 0 ? static_cast<double>(io.buffer_hits) / fetches : 0.0;
        char ratio_cell[16];
        std::snprintf(ratio_cell, sizeof(ratio_cell), "%.3f", ratio);
        mmbuf_rows.push_back({std::string(StrategyName(strategy)),
                              storage.name, std::to_string(io.buffer_hits),
                              std::to_string(io.device_reads), ratio_cell});
        if (strategy == Strategy::kPerformance && storage.name == "2 SSDs") {
          gated_hit_ratio = ratio;
        }
      }
      std::fflush(stdout);
    }
    bfs_rows.push_back(std::move(bfs_row));
    pr_rows.push_back(std::move(pr_row));
  }

  std::vector<std::string> headers{"strategy"};
  for (const auto& s : storages) headers.push_back(s.name);
  PrintTable("Figure 9(a): BFS " + spec.name +
                 "*, paper-scale seconds by storage type",
             headers, bfs_rows);
  PrintTable("Figure 9(b): PageRank (" + std::to_string(pr_iters) +
                 " it) " + spec.name + "*, paper-scale seconds",
             headers, pr_rows);

  // GPU-scaling ablation: Strategy-P speedup from the mod-hash h(j)
  // distribution of pages across 1 vs 2 GPUs (in-memory).
  std::vector<std::vector<std::string>> scale_rows;
  for (int gpus : {1, 2}) {
    auto store = MakeInMemoryStore(&prepared->paged);
    MachineConfig machine = MachineConfig::PaperScaled(gpus);
    GtsEngine engine(&prepared->paged, store.get(), machine, GtsOptions{});
    auto bfs = RunBfsGts(engine, source);
    auto pr = RunPageRankGts(engine, {.iterations = pr_iters});
    scale_rows.push_back(
        {std::to_string(gpus),
         bfs.ok() ? Cell(PaperSeconds(bfs->report.metrics.sim_seconds)) : "n/a",
         pr.ok() ? Cell(PaperSeconds(pr->report.metrics.sim_seconds)) : "n/a"});
  }
  PrintTable("Ablation: Strategy-P speedup vs #GPUs (in-memory)",
             {"#GPUs", "BFS", "PageRank"}, scale_rows);
  PrintTable("MMBuf (20% of the topology), PageRank last iteration",
             {"strategy", "storage", "hits", "device reads", "hit ratio"},
             mmbuf_rows);
  if (gated_hit_ratio < 0.10) {
    std::printf("FAIL: Strategy-P / 2 SSDs PageRank MMBuf hit ratio %.3f "
                "is below 0.10\n",
                gated_hit_ratio);
    return 1;
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
