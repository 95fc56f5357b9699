// The benchmark's four closed-loop workloads: input generation from the
// seed, engine set-up, the single client that drives the engine through
// its public API, and the answer checks against the CPU references.
#ifndef GTSBENCH_WORKLOADS_H_
#define GTSBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/engine.h"
#include "graph/csr_graph.h"
#include "graph/edge_list.h"
#include "storage/page_store.h"
#include "storage/paged_graph.h"

namespace gtsbench {

inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// `full` is the measured configuration; `tiny` shrinks every graph so the
/// smoke test runs all four workloads in seconds.
enum class Scale { kFull, kTiny };

/// Iterations of one PageRank query (the paper's Fig. 6/7 setting).
inline constexpr int kPageRankIterations = 10;

struct WorkloadSpec {
  std::string name;
  bool pagerank = false;  ///< kPageRankIterations-iteration PageRank; else BFS
  int num_gpus = 2;
  bool ssd = false;       ///< two simulated SSDs, MMBuf = 20% of topology
  bool ingest = false;    ///< rewire the graph before every query
  /// > 1: each unit submits this many BFS jobs through JobScheduler::Submit
  /// and then Waits for each (one batch epoch).
  int jobs_per_batch = 1;
  int rewirings_per_query = 0;
  /// Simulated metrics are taken over the first `sim_queries` queries of
  /// the seed's sequence, so they never depend on how fast the host is.
  int sim_queries = 0;
  /// Host metrics skip every unit that starts before this many queries
  /// ran: the first unit warms the allocator and host caches, and on
  /// bfs-ingest the first queries also grow the delta chains until
  /// compaction keeps them at a steady length.
  int warmup_queries = 1;
};

std::optional<WorkloadSpec> FindWorkload(std::string_view name, Scale scale);
std::vector<std::string> WorkloadNames();

/// Generates the workload's edge list from the seed.
gts::Result<gts::EdgeList> GenerateGraph(const WorkloadSpec& spec,
                                         Scale scale, uint64_t seed);

/// Host seconds of each set-up stage.
struct SetupTimes {
  double csr = 0.0;     ///< CsrGraph::FromEdgeList
  double pages = 0.0;   ///< BuildPagedGraph
  double store = 0.0;   ///< MakeSsdStore / MakeInMemoryStore
  double engine = 0.0;  ///< GtsEngine construction
  double total() const { return csr + pages + store + engine; }
};

/// One ready engine over its graph and store. Not movable: the engine
/// holds pointers into it.
struct System {
  gts::CsrGraph csr;
  gts::PagedGraph paged;
  std::unique_ptr<gts::PageStore> store;
  std::unique_ptr<gts::GtsEngine> engine;
  SetupTimes times;
};

gts::Result<std::unique_ptr<System>> BuildSystem(const WorkloadSpec& spec,
                                                 const gts::EdgeList& edges,
                                                 bool keep_timeline);

/// One query: one BFS, one PageRank, or one job of a batch.
struct QueryRecord {
  uint64_t source = 0;     ///< BFS source (0 for PageRank)
  double host_s = 0.0;     ///< call (Submit) until return (Wait returns)
  double sim_s = 0.0;      ///< simulated seconds; a batch job's epoch
  uint64_t edges = 0;      ///< edges traversed, for host_teps
  uint64_t answer = 0;     ///< hash of the levels / ranks
  std::string failure;     ///< empty when the query passed every check
  /// Simulated counters the traced run must reproduce bit for bit.
  uint64_t pages = 0, bytes = 0, kernel_calls = 0, levels = 0, reads = 0;
};

/// One closed-loop step: a single query, or one batch of jobs.
struct Unit {
  std::vector<QueryRecord> queries;
  std::vector<gts::RunMetrics> metrics;  ///< one per query (accumulated)
  /// Kept timelines (traced run only): one per BFS, per PageRank
  /// iteration, or per batch epoch.
  std::vector<gts::gpu::ScheduleResult> timelines;
  double host_s = 0.0;         ///< first call until the last return
  int submits = 0;             ///< direct JobScheduler::Submit calls
  double submit_s = 0.0;       ///< their summed host seconds
  int appends = 0;             ///< update batches appended
  double append_s = 0.0;       ///< EdgeStream::Append + FlushGutters
};

/// The single client; it checks every answer. Two clients built from one
/// seed issue the same queries and updates, which is how the traced run
/// replays the untraced one on a fresh system.
class Client {
 public:
  Client(const WorkloadSpec& spec, const gts::CsrGraph& csr, uint64_t seed);

  /// Issues the next unit against `system` and waits for it.
  Unit RunNext(System& system);

 private:
  gts::VertexId NextSource();
  Unit RunBfs(System& system);
  Unit RunPageRank(System& system);
  Unit RunBatch(System& system);
  /// Appends one batch of degree-neutral rewirings and replays it.
  gts::Status Rewire(System& system, Unit* unit);
  /// Levels check plus the Graph500 edge count of the traversal.
  void CheckBfs(gts::VertexId source, const std::vector<uint16_t>& levels,
                QueryRecord* query);

  const WorkloadSpec& spec_;
  const gts::CsrGraph& csr_;
  std::vector<gts::VertexId> candidates_;  ///< vertices with out-degree >= 1
  gts::Xoshiro256 sources_rng_;
  gts::Xoshiro256 updates_rng_;
  /// The benchmark's own replay of the applied rewirings (ingest only).
  std::vector<std::vector<gts::VertexId>> adjacency_;
  std::vector<double> reference_ranks_;  ///< computed on first use
  uint64_t rejected_seen_ = 0;
};

}  // namespace gtsbench

#endif  // GTSBENCH_WORKLOADS_H_
