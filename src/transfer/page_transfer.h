// The H2D topology-transfer step of the dispatch loop (DESIGN.md §14).
//
// BeginPass decides once per pass whether SP pages cross PCI-E whole (the
// paper's page streaming) or as EMOGI-style cache-line fetches of their
// active adjacency lists; Stage records the copy-engine op that carries
// one demanded page out of the storage read the engine acquired. Cache
// lookup and insert (a hit never reaches Stage), the storage read, RA
// ops and kernels stay in the engine. Every page stages whole into MMBuf and kernels run against the
// full host bytes, so results never depend on the mode; only the
// simulated PCI-E traffic does.
#ifndef GTS_TRANSFER_PAGE_TRANSFER_H_
#define GTS_TRANSFER_PAGE_TRANSFER_H_

#include <cstdint>
#include <vector>

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

/// What Stage() recorded.
struct StagedPage {
  gpu::OpIndex transfer_op = gpu::kNoOp;  ///< the recorded H2D op
  uint64_t bytes = 0;    ///< PCI-E bytes the transfer op charged
  bool direct = false;   ///< true when a kH2DDirect op was recorded
};

class PageTransfer {
 public:
  /// `record` appends to the engine's schedule recorder. Registers
  /// transfer.pages and transfer.bytes, plus the direct/level/fallback
  /// counters when `mode` is not kPageStream.
  PageTransfer(TransferMode mode, const PagedGraph* graph, io::IoEngine* io,
               const TimeModel* time_model, io::IoEngine::RecordFn record,
               obs::MetricsRegistry& registry);

  /// Starts one pass over `ordered`. `frontier` is the level's counted
  /// frontier for traversal passes, null otherwise; it must stay alive
  /// until the next BeginPass. A non-page_stream mode streams passes
  /// without a counted frontier whole (transfer.fallback_passes);
  /// otherwise kDirect goes direct and kAuto asks PreferDirectTransfer
  /// about the level's demanded SP pages.
  void BeginPass(const std::vector<PageId>& ordered, const PidSet* frontier);

  /// Records the H2D op of page `pid` (a cache miss on `gpu`) out of
  /// `fetch`, the pass's storage read of the page, on stream
  /// `stream_key`, tagged `job` (TimelineOp::job semantics): kH2DDirect
  /// for an SP page in a direct pass, else kH2DStream of the whole page
  /// at c2. The H2D depends on the read and reads the page's MMBuf slot,
  /// so it is reported to the io engine as a reader. Called on the
  /// driver thread only.
  StagedPage Stage(PageId pid, const io::IoEngine::Fetched& fetch, int gpu,
                   int stream_key, int32_t job);

 private:
  const TransferMode mode_;
  const PagedGraph* graph_;
  io::IoEngine* io_;
  const TimeModel* time_model_;
  io::IoEngine::RecordFn record_;

  bool direct_pass_ = false;
  const PidSet* frontier_ = nullptr;  ///< alive for the current pass

  obs::Counter* pages_ = nullptr;
  obs::Counter* bytes_ = nullptr;
  // Null under kPageStream, which never touches them.
  obs::Counter* direct_pages_ = nullptr;
  obs::Counter* direct_bytes_ = nullptr;
  obs::Counter* direct_levels_ = nullptr;
  obs::Counter* page_stream_levels_ = nullptr;
  obs::Counter* fallback_passes_ = nullptr;
};

}  // namespace transfer
}  // namespace gts

#endif  // GTS_TRANSFER_PAGE_TRANSFER_H_
