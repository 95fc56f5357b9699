// Betweenness Centrality on GTS (Brandes, single source; Appendix D runs
// BC in single-node mode).
//
// Two phases share the framework:
//   forward  -- a BFS-like traversal kernel computing depth and
//               shortest-path counts sigma, while the engine records which
//               pages each level touched (RunMetrics::level_pages);
//   backward -- per level, deepest first, a pass over exactly those pages
//               (JobScheduler::RunPassJob) accumulating dependencies delta.
//
// The current implementation supports a single GPU (the configuration the
// paper evaluates BC in); multi-GPU replica merging of sigma is rejected.
#ifndef GTS_ALGORITHMS_BC_H_
#define GTS_ALGORITHMS_BC_H_

#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "core/kernel.h"

namespace gts {

/// Forward phase: WA packs {uint32 level; float sigma} per vertex.
class BcForwardKernel final : public GtsKernel {
 public:
  static constexpr uint32_t kUnvisited = ~uint32_t{0};

  struct Entry {
    uint32_t level;
    float sigma;
  };
  static_assert(sizeof(Entry) == 8);

  BcForwardKernel(VertexId num_vertices, VertexId source);

  std::string name() const override { return "BC-forward"; }
  AccessPattern access_pattern() const override {
    return AccessPattern::kTraversal;
  }
  bool collect_level_pages() const override { return true; }
  uint32_t wa_bytes_per_vertex() const override { return sizeof(Entry); }
  uint32_t ra_bytes_per_vertex() const override { return 0; }
  double seconds_per_mem_transaction(const TimeModel& model) const override {
    return 1.5 * model.mem_transaction_seconds_traversal;
  }

  void InitDeviceWa(uint8_t* device_wa, VertexId begin,
                    VertexId end) const override;
  void AbsorbDeviceWa(const uint8_t* device_wa, VertexId begin,
                      VertexId end) override;

  WorkStats RunSp(const PageView& page, KernelContext& ctx) override;
  WorkStats RunLp(const PageView& page, KernelContext& ctx) override;

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Backward phase: WA packs {float delta; float sigma; uint32 level}.
class BcBackwardKernel final : public GtsKernel {
 public:
  struct Entry {
    float delta;
    float sigma;
    uint32_t level;
  };
  static_assert(sizeof(Entry) == 12);

  explicit BcBackwardKernel(const std::vector<BcForwardKernel::Entry>& fwd);

  std::string name() const override { return "BC-backward"; }
  AccessPattern access_pattern() const override {
    return AccessPattern::kFullScan;
  }
  uint32_t wa_bytes_per_vertex() const override { return sizeof(Entry); }
  uint32_t ra_bytes_per_vertex() const override { return 0; }
  double seconds_per_mem_transaction(const TimeModel& model) const override {
    return 2.0 * model.mem_transaction_seconds_traversal;
  }

  void InitDeviceWa(uint8_t* device_wa, VertexId begin,
                    VertexId end) const override;
  void AbsorbDeviceWa(const uint8_t* device_wa, VertexId begin,
                      VertexId end) override;

  WorkStats RunSp(const PageView& page, KernelContext& ctx) override;
  WorkStats RunLp(const PageView& page, KernelContext& ctx) override;

  std::vector<double> Deltas() const;

 private:
  std::vector<Entry> entries_;
};

struct BcGtsResult {
  /// Dependency (BC contribution) of each vertex for this source.
  std::vector<double> deltas;
  RunReport report;  ///< forward + backward, summed
};

/// Runs single-source Brandes BC. Requires a single-GPU engine. Reads no
/// JobOptions fields (trailing parameter for signature uniformity).
Result<BcGtsResult> RunBcGts(GtsEngine& engine, VertexId source,
                             const JobOptions& options = {});

}  // namespace gts

#endif  // GTS_ALGORITHMS_BC_H_
