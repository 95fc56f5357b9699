// Streaming-ingestion bench for gts::ingest (DESIGN.md section 15).
//
// Three axes, two of them hard gates:
//
//  1. Sustained update throughput: N producer threads rewire the graph
//     degree-neutrally through the gutter banks while a publisher drains
//     at a fixed cadence. Reported as updates/sec per producer count.
//  2. Bounded delta chains (GATE): at no publish point may a page's
//     pending-delta chain exceed its worst-case single-pass burst (two
//     updates per contained vertex) plus 8x ingest.compact_threshold of
//     backlog, and after QuiesceIngest() every chain must be empty --
//     each publish must compact the chains it grew past the threshold.
//  3. Ingestion/query overlap (GATE): a BFS running concurrently with the
//     producer fleet must finish within 1.5x the simulated makespan of
//     the same BFS on the same engine without churn. Streaming updates
//     may tax queries, but they must not serialize against them.
#include "bench_common.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "algorithms/bfs.h"
#include "core/job/job_scheduler.h"
#include "ingest/edge_stream.h"

namespace gts {
namespace bench {
namespace {

double WallSeconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Degree-neutral rewiring for vertex `v` (remove its smallest neighbor,
/// insert a pseudo-random replacement): never grows a page, so the
/// producers measure gutter/delta throughput, not rejection handling.
VertexId ReplacementFor(VertexId v, VertexId num_vertices) {
  return static_cast<VertexId>((v * 2654435761u + 17) % num_vertices);
}

struct ProducerPlan {
  std::vector<ingest::UpdateBatch> batches;
  size_t updates = 0;
};

/// Pre-builds each producer's append schedule so the timed section does
/// no generation work. Producer `p` of `n` owns vertex slice [p/n, p+1/n).
std::vector<ProducerPlan> PlanProducers(const CsrGraph& csr, int producers) {
  const VertexId n = csr.num_vertices();
  std::vector<ProducerPlan> plans(producers);
  for (int p = 0; p < producers; ++p) {
    const VertexId begin = n * p / producers;
    const VertexId end = n * (p + 1) / producers;
    ingest::UpdateBatch batch;
    for (VertexId v = begin; v < end; ++v) {
      if (csr.out_degree(v) == 0) continue;
      batch.push_back(ingest::EdgeUpdate::Remove(v, csr.neighbors(v)[0]));
      batch.push_back(ingest::EdgeUpdate::Insert(v, ReplacementFor(v, n)));
      plans[p].updates += 2;
      if (batch.size() >= 64) {
        plans[p].batches.push_back(std::move(batch));
        batch.clear();
      }
    }
    if (!batch.empty()) plans[p].batches.push_back(std::move(batch));
  }
  return plans;
}

int Main() {
  DatasetSpec spec = RmatSpec(26);
  auto prepared = Prepare(spec);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  const VertexId source = BusySource(prepared->csr);

  // Worst-case single-pass burst per page: every vertex in a page gets
  // one remove+insert pair, and each update is one PageDelta chain entry.
  // The chain gate allows that inherent burst plus a bounded compaction
  // backlog on top -- anything beyond means a publish left a chain it
  // should have compacted.
  size_t max_vertices_per_page = 0;
  {
    std::vector<size_t> per_page(prepared->paged.num_pages(), 0);
    for (VertexId v = 0; v < prepared->csr.num_vertices(); ++v) {
      max_vertices_per_page =
          std::max(max_vertices_per_page, ++per_page[prepared->paged.PageOfVertex(v)]);
    }
  }

  // ------------------------- axis 1 + gate 2: throughput, bounded chains
  std::vector<std::vector<std::string>> rows;
  for (int producers : {1, 2, 4}) {
    // Fresh store per cell: ingestion rewrites pages in place, and each
    // cell must start from the same frozen image.
    auto store = MakeInMemoryStore(&prepared->paged);
    GtsOptions opts;
    opts.ingest.enabled = true;
    GtsEngine engine(&prepared->paged, store.get(), MachineConfig::PaperScaled(1),
                     opts);
    ingest::EdgeStream* stream = engine.edge_stream();

    const auto plans = PlanProducers(prepared->csr, producers);
    size_t total_updates = 0;
    for (const auto& plan : plans) total_updates += plan.updates;

    const size_t chain_bound =
        2 * max_vertices_per_page + 8 * opts.ingest.compact_threshold;
    size_t max_chain_seen = 0;
    std::atomic<bool> producing{true};
    const double wall = WallSeconds([&] {
      std::vector<std::thread> threads;
      threads.reserve(producers);
      for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
          for (const auto& batch : plans[p].batches) {
            Status status = stream->Append(batch);
            GTS_CHECK(status.ok()) << status.ToString();
          }
        });
      }
      // Publisher: the safe-point cadence a serving engine would provide.
      // Sampling MaxChainLength right after each publish observes the
      // chains at their longest: only a publish grows a chain, and it
      // leaves uncompacted only those below the threshold.
      std::thread publisher([&] {
        while (producing.load(std::memory_order_relaxed)) {
          stream->FlushGutters();
          stream->Publish();
          max_chain_seen = std::max(max_chain_seen, stream->MaxChainLength());
          std::this_thread::yield();
        }
      });
      for (auto& t : threads) t.join();
      producing.store(false, std::memory_order_relaxed);
      publisher.join();
      Status status = engine.scheduler().QuiesceIngest();
      GTS_CHECK(status.ok()) << status.ToString();
    });
    max_chain_seen = std::max(max_chain_seen, stream->MaxChainLength());

    if (stream->MaxChainLength() != 0) {
      std::fprintf(stderr,
                   "FAIL: %zu-long delta chain survived QuiesceIngest()\n",
                   stream->MaxChainLength());
      return 1;
    }
    if (max_chain_seen > chain_bound) {
      std::fprintf(stderr,
                   "FAIL: delta chain reached %zu (bound %zu): compaction "
                   "is not keeping up with ingestion\n",
                   max_chain_seen, chain_bound);
      return 1;
    }

    const ingest::IngestStats stats = stream->SnapshotStats();
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.0f",
                  static_cast<double>(total_updates) / wall);
    char wall_cell[32];
    std::snprintf(wall_cell, sizeof(wall_cell), "%.3f", wall);
    rows.push_back({spec.name, std::to_string(producers),
                    std::to_string(total_updates), wall_cell, rate,
                    std::to_string(stats.gutter_flushes),
                    std::to_string(stats.compactions),
                    std::to_string(max_chain_seen)});
  }
  PrintTable(
      "Streaming ingestion: sustained update throughput (degree-neutral "
      "rewires; chains bounded, drained by quiesce)",
      {"data", "producers", "updates", "wall-s", "updates/s", "gutter-fl",
       "compactions", "max-chain"},
      rows);

  // --------------------------------- gate 3: ingestion/query overlap
  //
  // Same engine configuration twice over fresh stores: BFS alone, then
  // BFS racing the full 4-producer fleet. Simulated seconds (not host
  // wall-clock) so the gate is stable on loaded CI boxes: publish work is
  // priced into the run it lands in, and that surcharge is exactly what
  // the 1.5x budget allows.
  double solo_sim = 0;
  {
    auto store = MakeInMemoryStore(&prepared->paged);
    GtsOptions opts;
    opts.ingest.enabled = true;
    GtsEngine engine(&prepared->paged, store.get(), MachineConfig::PaperScaled(1),
                     opts);
    auto bfs = RunBfsGts(engine, source);
    if (!bfs.ok()) {
      std::fprintf(stderr, "solo BFS failed: %s\n",
                   bfs.status().ToString().c_str());
      return 1;
    }
    solo_sim = bfs->report.metrics.sim_seconds;
  }

  double churn_sim = 0;
  double churn_wall = 0;
  {
    auto store = MakeInMemoryStore(&prepared->paged);
    GtsOptions opts;
    opts.ingest.enabled = true;
    GtsEngine engine(&prepared->paged, store.get(), MachineConfig::PaperScaled(1),
                     opts);
    ingest::EdgeStream* stream = engine.edge_stream();
    const auto plans = PlanProducers(prepared->csr, 4);

    Result<BfsGtsResult> bfs = Status::Internal("never ran");
    churn_wall = WallSeconds([&] {
      std::vector<std::thread> threads;
      for (int p = 0; p < 4; ++p) {
        threads.emplace_back([&, p] {
          for (const auto& batch : plans[p].batches) {
            Status status = stream->Append(batch);
            GTS_CHECK(status.ok()) << status.ToString();
          }
        });
      }
      bfs = RunBfsGts(engine, source);
      for (auto& t : threads) t.join();
      Status status = engine.scheduler().QuiesceIngest();
      GTS_CHECK(status.ok()) << status.ToString();
    });
    if (!bfs.ok()) {
      std::fprintf(stderr, "BFS under churn failed: %s\n",
                   bfs.status().ToString().c_str());
      return 1;
    }
    churn_sim = bfs->report.metrics.sim_seconds;
  }

  std::printf(
      "\noverlap: solo BFS %.3f paper-s, BFS under 4-producer churn %.3f "
      "paper-s (%.2fx, budget 1.50x), churn wall %.3f s\n",
      PaperSeconds(solo_sim), PaperSeconds(churn_sim),
      churn_sim / solo_sim, churn_wall);
  if (churn_sim > 1.5 * solo_sim) {
    std::fprintf(stderr,
                 "FAIL: BFS under churn took %.2fx its solo makespan "
                 "(budget 1.50x): ingestion is serializing queries\n",
                 churn_sim / solo_sim);
    return 1;
  }
  std::printf("all ingestion gates passed\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gts

int main(int argc, char** argv) {
  gts::bench::InitBenchArgs(argc, argv);
  return gts::bench::Main();
}
