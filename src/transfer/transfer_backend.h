// The pluggable H2D topology-transfer seam (DESIGN.md §14).
//
// Every byte of topology that crosses PCI-E used to be hand-built inline
// at ~6 sites in core/engine.cc. A TransferBackend now owns the two
// halves of that path the sites shared:
//
//   BeginPass  -- resolve the pass's transfer mode (page_stream vs
//                 direct) from the pass's ordered page list.
//   Stage      -- acquire one demanded page from storage and record the
//                 timeline op that carries it over the copy engine,
//                 returning the staged host bytes plus the op handles
//                 the engine wires into RA copies, race instrumentation,
//                 and the dependent kernel.
//
// What stays in the engine: cache lookup/insert (a cache hit never
// reaches Stage), RA subvector ops (kernel-specific), kernel ops, and
// kernel execution. PageStreamBackend reproduces the pre-refactor
// schedules byte-identically; DirectAccessBackend swaps the PCI-E leg
// for EMOGI-style cache-line fetches of active adjacency lists.
#ifndef GTS_TRANSFER_TRANSFER_BACKEND_H_
#define GTS_TRANSFER_TRANSFER_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/frontier.h"
#include "gpu/schedule.h"
#include "gpu/time_model.h"
#include "graph/types.h"
#include "io/io_engine.h"
#include "obs/metrics.h"
#include "storage/paged_graph.h"
#include "transfer/transfer_options.h"

namespace gts {
namespace transfer {

/// One pass's transfer-planning inputs.
struct PassInfo {
  /// The pass's page order (SPs then LPs under the default
  /// dispatch.order). Not owned; alive for the whole pass.
  const std::vector<PageId>* ordered = nullptr;
  /// The level's counted frontier for traversal passes, null otherwise
  /// (full scans, explicit page passes). Alive for the whole pass.
  const PidSet* frontier = nullptr;
};

/// One page's staging request (a cache miss on its target GPU).
struct StageRequest {
  PageId pid = kInvalidPageId;
  int gpu = 0;
  int stream_key = -1;  ///< StreamKey(gpu, stream) carrying the transfer
  /// JobScheduler epochs: the single demanding job's id, or -1 for
  /// shared/solo transfers (TimelineOp::job semantics).
  int32_t job = -1;
};

/// What Stage() delivered.
struct StagedPage {
  /// The page's host (MMBuf) bytes. Valid only while the caller's host
  /// phase owns the io engine (a concurrent Acquire may evict them);
  /// the engine memcpys into its staging buffer before releasing.
  const uint8_t* data = nullptr;
  gpu::OpIndex fetch_op = gpu::kNoOp;     ///< storage dependency (or kNoOp)
  gpu::OpIndex transfer_op = gpu::kNoOp;  ///< the recorded H2D op
  uint64_t bytes = 0;    ///< PCI-E bytes the transfer op charged
  bool direct = false;   ///< true when a kH2DDirect op was recorded
  /// io::IoEngine::Fetched passthrough for race instrumentation.
  bool buffer_hit = false;
  size_t device_index = 0;
};

class TransferBackend {
 public:
  /// Engine-side wiring, fixed for the backend's lifetime.
  struct Env {
    const PagedGraph* graph = nullptr;
    io::IoEngine* io = nullptr;
    const TimeModel* time_model = nullptr;
    /// Appends to the engine's schedule recorder (thread-safe).
    std::function<gpu::OpIndex(const gpu::TimelineOp&)> record;
    obs::MetricsRegistry* registry = nullptr;  ///< may be null (tests)
  };

  virtual ~TransferBackend() = default;

  virtual std::string_view name() const = 0;
  /// The configured mode (the knob, not a per-pass resolution).
  virtual TransferMode mode() const = 0;
  /// The mode the current pass resolved to: equals mode() except under
  /// kAuto (per-level crossover) and kDirect fallback on uncounted
  /// passes. Meaningful between BeginPass and the next BeginPass.
  virtual TransferMode pass_mode() const = 0;

  /// Starts one pass: resolves pass_mode() from `info`.
  virtual void BeginPass(const PassInfo& info) = 0;

  /// Acquires one demanded page and records its H2D transfer op.
  /// Called only for cache misses, on the driver thread; the engine
  /// copies the returned data before it stages the next page.
  virtual Result<StagedPage> Stage(const StageRequest& req) = 0;
};

/// Builds the backend for `options.mode`.
std::unique_ptr<TransferBackend> MakeTransferBackend(
    const TransferOptions& options, TransferBackend::Env env);

}  // namespace transfer
}  // namespace gts

#endif  // GTS_TRANSFER_TRANSFER_BACKEND_H_
