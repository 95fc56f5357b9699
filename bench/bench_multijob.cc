// Multi-job serving sweep: J concurrent BFS jobs over one shared graph
// through the gts::JobScheduler, against J sequential solo runs (one
// fresh engine each -- the pre-scheduler serving model).
//
// The scheduler merges the jobs' per-pass page demand into one PlanPass
// union, so a page streamed for one job services every job demanding it.
// The sweep quantifies that: total pages streamed (first-demander
// attribution -- the per-job sum IS the distinct H2D transfer count),
// cross-job shared-page hits, epoch makespan, and aggregate throughput.
//
// Hard gate: 2 concurrent shared-graph jobs must stream strictly fewer
// total pages than 2 sequential solos; the binary exits non-zero if the
// sharing machinery ever regresses to per-job re-streaming.
#include "bench_common.h"

#include <memory>

#include "algorithms/bfs.h"
#include "core/job/job_scheduler.h"

namespace gts {
namespace bench {
namespace {

struct SweepResult {
  uint64_t pages = 0;        // distinct H2D page transfers, summed per job
  uint64_t shared_hits = 0;  // pages consumed via another job's transfer
  double makespan = 0.0;     // simulated seconds until the last job is done
  bool ok = true;
};

GtsOptions ServingOptions(int jobs) {
  GtsOptions opts;
  opts.max_concurrent_jobs = jobs;
  // Stream threads off: kernels run inline, so the sweep is deterministic
  // run to run.
  opts.use_stream_threads = false;
  return opts;
}

/// All of `sources` submitted before the first Wait, so one batch epoch
/// serves them concurrently over the shared engine.
SweepResult RunConcurrent(const PreparedGraph& g, PageStore* store,
                          const std::vector<VertexId>& sources) {
  GtsEngine engine(&g.paged, store,
                   MachineConfig::PaperScaled(1),
                   ServingOptions(static_cast<int>(sources.size())));
  std::vector<std::unique_ptr<BfsKernel>> kernels;
  std::vector<JobHandle> handles;
  for (VertexId s : sources) {
    kernels.push_back(
        std::make_unique<BfsKernel>(g.csr.num_vertices(), s));
    JobOptions job;
    job.source = s;
    handles.push_back(engine.scheduler().Submit(kernels.back().get(), job));
  }
  SweepResult out;
  for (auto& handle : handles) {
    auto report = handle.Wait();
    if (!report.ok()) {
      std::fprintf(stderr, "concurrent job failed: %s\n",
                   report.status().ToString().c_str());
      out.ok = false;
      continue;
    }
    out.pages += report->metrics.pages_streamed;
    out.shared_hits += report->metrics.shared_page_hits;
    // Every job of a batch epoch reports the epoch makespan; sequential
    // follow-up batches (deferred jobs) extend it.
    out.makespan = std::max(out.makespan, report->metrics.sim_seconds);
  }
  return out;
}

/// The same jobs, one engine each, one after another: the pre-scheduler
/// serving model every concurrent row is judged against.
SweepResult RunSequential(const PreparedGraph& g, PageStore* store,
                          const std::vector<VertexId>& sources) {
  SweepResult out;
  for (VertexId s : sources) {
    GtsEngine engine(&g.paged, store, MachineConfig::PaperScaled(1),
                     ServingOptions(1));
    BfsKernel kernel(g.csr.num_vertices(), s);
    auto metrics = engine.Run(&kernel, s);
    if (!metrics.ok()) {
      std::fprintf(stderr, "solo job failed: %s\n",
                   metrics.status().ToString().c_str());
      out.ok = false;
      continue;
    }
    out.pages += metrics->pages_streamed;
    out.shared_hits += metrics->shared_page_hits;
    out.makespan += metrics->sim_seconds;
  }
  return out;
}

int Main() {
  DatasetSpec spec = RmatSpec(27);
  auto prepared = Prepare(spec);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  auto store = MakeInMemoryStore(&prepared->paged);

  // The J busiest sources: distinct queries with heavily overlapping
  // topology demand (the serving workload the scheduler exists for).
  std::vector<VertexId> by_degree(prepared->csr.num_vertices());
  for (VertexId v = 0; v < prepared->csr.num_vertices(); ++v)
    by_degree[v] = v;
  std::sort(by_degree.begin(), by_degree.end(), [&](VertexId a, VertexId b) {
    return prepared->csr.out_degree(a) > prepared->csr.out_degree(b);
  });

  std::printf("Multi-job serving on %s*: J concurrent BFS jobs, one "
              "shared engine vs J sequential solos\n\n",
              spec.name.c_str());

  std::vector<std::vector<std::string>> rows;
  bool all_ok = true;
  uint64_t gate_concurrent = 0, gate_sequential = 0;
  for (int jobs : {1, 2, 4}) {
    for (const bool same_source : {true, false}) {
      if (jobs == 1 && !same_source) continue;
      std::vector<VertexId> sources;
      for (int j = 0; j < jobs; ++j) {
        sources.push_back(by_degree[same_source ? 0 : j]);
      }
      const SweepResult con = RunConcurrent(*prepared, store.get(), sources);
      const SweepResult seq = RunSequential(*prepared, store.get(), sources);
      all_ok = all_ok && con.ok && seq.ok;
      if (jobs == 2 && same_source) {
        gate_concurrent = con.pages;
        gate_sequential = seq.pages;
      }
      char saved[32];
      std::snprintf(saved, sizeof(saved), "%.1f%%",
                    seq.pages == 0
                        ? 0.0
                        : 100.0 * (1.0 - static_cast<double>(con.pages) /
                                             static_cast<double>(seq.pages)));
      rows.push_back({std::to_string(jobs),
                      same_source ? "same" : "distinct",
                      std::to_string(con.pages), std::to_string(seq.pages),
                      saved, std::to_string(con.shared_hits),
                      Cell(PaperSeconds(con.makespan)),
                      Cell(PaperSeconds(seq.makespan))});
    }
  }
  PrintTable("Jobs x sharing sweep (pages = distinct H2D transfers)",
             {"jobs", "sources", "pages(con)", "pages(seq)", "saved",
              "shared_hits", "makespan(con)", "sum(seq)"},
             rows);

  if (!all_ok) return 1;
  if (gate_concurrent >= gate_sequential) {
    std::fprintf(stderr,
                 "FAIL: 2 concurrent shared-graph jobs streamed %llu pages, "
                 "not fewer than 2 sequential solos (%llu) -- shared-"
                 "topology streaming regressed\n",
                 static_cast<unsigned long long>(gate_concurrent),
                 static_cast<unsigned long long>(gate_sequential));
    return 1;
  }
  std::printf("\nGate OK: 2 concurrent shared-graph jobs streamed %llu "
              "pages vs %llu sequentially.\n",
              static_cast<unsigned long long>(gate_concurrent),
              static_cast<unsigned long long>(gate_sequential));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace gts

int main(int argc, char** argv) {
  gts::bench::InitBenchArgs(argc, argv);
  return gts::bench::Main();
}
