// The analytic cost models of Section 5 (Eq. 1 and Eq. 2).
//
// These are deliberately independent of the discrete-event scheduler: the
// paper uses them to explain performance tendencies, and the tests check
// that the simulator and the closed-form model agree on those tendencies.
#ifndef GTS_CORE_COST_MODEL_H_
#define GTS_CORE_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "gpu/time_model.h"
#include "graph/types.h"

namespace gts {

/// Inputs to Eq. 1 (PageRank-like algorithms, Strategy-P, no I/O),
/// for a single pass/iteration.
struct PageRankCostInputs {
  uint64_t wa_bytes = 0;   ///< |WA|
  uint64_t ra_bytes = 0;   ///< |RA|
  uint64_t sp_bytes = 0;   ///< |SP| (total small-page bytes)
  uint64_t lp_bytes = 0;   ///< |LP|
  uint64_t num_pages = 0;  ///< S + L
  /// t_kernel(SP|1| + LP|1|): execution time of the last SP and LP kernels
  /// that data streaming cannot hide.
  SimTime last_kernel_seconds = 0.0;
  int num_gpus = 1;
};

/// Eq. 1:  2|WA|/c1 + (|RA|+|SP|+|LP|)/(c2 N) + t_call((S+L)/N)
///          + t_kernel(SP|1|+LP|1|) + t_sync(N).
SimTime PageRankLikeCost(const PageRankCostInputs& in, const TimeModel& tm);

/// Per-level inputs to Eq. 2 (BFS-like algorithms).
struct BfsLevelCost {
  uint64_t bytes = 0;  ///< |RA{l}| + |SP{l}| + |LP{l}|
  uint64_t pages = 0;  ///< S{l} + L{l}
};

struct BfsCostInputs {
  uint64_t wa_bytes = 0;
  std::vector<BfsLevelCost> levels;
  /// Workload balance across GPUs in [1/N, 1]; 1 = perfectly balanced.
  double dskew = 1.0;
  /// Cache hit rate r_hit in [0, 1] (~B/(S+L) for random graphs, Sec 3.3).
  double hit_rate = 0.0;
  int num_gpus = 1;
};

/// Eq. 2:  2|WA|/c1 + sum_l [ bytes_l (1-r_hit) / (c2 N d_skew)
///                            + t_call(pages_l / (N d_skew)) ].
SimTime BfsLikeCost(const BfsCostInputs& in, const TimeModel& tm);

/// The naive cache-hit approximation of Section 3.3: B/(S+L), clamped.
double ApproximateHitRate(uint64_t cache_pages, uint64_t total_pages);

/// Section 3.2: "the suitable number of streams k can be determined by
/// using the ratio of the transfer time of SP_j and RA_j to the kernel
/// execution time" -- one stream to transfer plus enough to keep kernels
/// resident, capped at the CUDA concurrent-kernel limit.
int SuggestNumStreams(SimTime transfer_seconds, SimTime kernel_seconds,
                      int max_streams = 32);

/// Aggregate statistics of one traversal level's page demand, the inputs
/// to the page-stream-vs-direct transfer crossover (transfer.mode=auto).
/// `active_vertices`/`active_edges` come from the degree-weighted PidSet
/// (PidSet::VertexCountOf / PidSet::CountOf summed over the demanded SP
/// pages); LP pages always stream whole (a single hub's chunk is dense by
/// construction), so they contribute the same term to both estimates.
struct TransferLevelStats {
  uint64_t sp_pages = 0;         ///< demanded small pages
  uint64_t lp_pages = 0;         ///< demanded large pages (incl. chunks)
  uint64_t active_vertices = 0;  ///< activation events in the SP pages
  uint64_t active_edges = 0;     ///< degree-weighted activations
  uint64_t page_size = 0;        ///< bytes per slotted page
  uint32_t entry_bytes = 0;      ///< bytes per adjacency entry (p + q)
};

/// Bytes a direct transfer moves for the level's SP pages: one aligned
/// line per active vertex (slot + record header + first entries) plus the
/// remaining adjacency entries at line granularity.
uint64_t DirectTransferBytes(const TransferLevelStats& s, const TimeModel& tm);

/// Level seconds under page streaming: every demanded page crosses PCI-E
/// whole at the streaming bandwidth c2.
SimTime PageStreamLevelSeconds(const TransferLevelStats& s,
                               const TimeModel& tm);

/// Level seconds under direct access: SP adjacency lists at line
/// granularity over direct_bandwidth plus a per-vertex fetch latency;
/// LP pages still stream whole at c2.
SimTime DirectLevelSeconds(const TransferLevelStats& s, const TimeModel& tm);

/// The calibrated crossover: true when fine-grained direct access is
/// estimated cheaper than streaming whole pages for this level. Levels
/// with no recorded activations (counting off, or a pure scan pass)
/// always prefer page streaming.
bool PreferDirectTransfer(const TransferLevelStats& s, const TimeModel& tm);

}  // namespace gts

#endif  // GTS_CORE_COST_MODEL_H_
