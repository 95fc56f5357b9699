// K-core on GTS -- one of the traversal-family algorithms Section 3.3
// lists. Iterative peeling expressed as repeated streaming scans:
//
//   each round streams the pages of vertices removed in the previous
//   round (page-granular, like a BFS frontier) and decrements the
//   remaining degree of their neighbors (WA, atomicSub); the host then
//   peels every alive vertex whose remaining degree dropped below k.
//
// The graph should be symmetrized for the usual undirected K-core
// semantics (see SymmetrizeEdges).
#ifndef GTS_ALGORITHMS_KCORE_H_
#define GTS_ALGORITHMS_KCORE_H_

#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "core/kernel.h"
#include "graph/csr_graph.h"

namespace gts {

/// Per-round kernel: decrements neighbor degrees of just-removed vertices.
class KcoreKernel final : public GtsKernel {
 public:
  explicit KcoreKernel(VertexId num_vertices);

  std::string name() const override { return "KCore"; }
  AccessPattern access_pattern() const override {
    return AccessPattern::kFullScan;  // driven page lists via RunPassJob
  }
  uint32_t wa_bytes_per_vertex() const override { return sizeof(uint32_t); }
  uint32_t ra_bytes_per_vertex() const override { return sizeof(uint8_t); }
  double seconds_per_mem_transaction(const TimeModel& model) const override {
    return model.mem_transaction_seconds_traversal;
  }

  const uint8_t* host_ra() const override { return removed_now_.data(); }

  void InitDeviceWa(uint8_t* device_wa, VertexId begin,
                    VertexId end) const override;
  void AbsorbDeviceWa(const uint8_t* device_wa, VertexId begin,
                      VertexId end) override;

  WorkStats RunSp(const PageView& page, KernelContext& ctx) override;
  WorkStats RunLp(const PageView& page, KernelContext& ctx) override;

  /// Clears the decrement accumulator and the removed-now flags.
  void ResetRound();

  const std::vector<uint32_t>& decrements() const { return decrements_; }
  std::vector<uint8_t>& removed_now() { return removed_now_; }

 private:
  std::vector<uint32_t> decrements_;   // this round's decrements
  std::vector<uint8_t> removed_now_;   // RA: removed in the previous round
};

struct KcoreGtsResult {
  /// True for vertices in the k-core.
  std::vector<uint8_t> in_core;
  uint64_t core_size = 0;
  int rounds = 0;
  RunReport report;
};

/// Computes the k-core of the engine's (symmetrized) graph. `k` is the
/// query itself, so it stays positional; no JobOptions fields are read.
Result<KcoreGtsResult> RunKcoreGts(GtsEngine& engine, uint32_t k,
                                   const JobOptions& options = {});

/// Reference peeling for validation.
std::vector<uint8_t> ReferenceKcore(const CsrGraph& graph, uint32_t k);

}  // namespace gts

#endif  // GTS_ALGORITHMS_KCORE_H_
