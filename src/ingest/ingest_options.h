// Knobs of the gts::ingest streaming-update subsystem.
#ifndef GTS_INGEST_INGEST_OPTIONS_H_
#define GTS_INGEST_INGEST_OPTIONS_H_

#include <cstdint>

#include "common/status.h"

namespace gts {
namespace ingest {

/// GtsOptions::ingest.* -- see DESIGN.md section 15 for the lifecycle these
/// knobs govern (gutter fill -> delta flush -> compaction at a publish).
struct IngestOptions {
  /// Master switch. Off (the default) keeps the engine's frozen-graph
  /// behavior byte-identical: no EdgeStream is constructed, no publish
  /// hooks run at pass boundaries.
  bool enabled = false;

  /// Updates one per-page gutter buffers before it is flushed to the
  /// pending-delta queue (GraphStreamingCC's gutter_factor idea at page
  /// granularity). Larger gutters batch better; smaller gutters shorten
  /// the window in which updates are invisible to Publish().
  uint32_t gutter_capacity = 64;

  /// Delta-chain length (pending PageDelta count) at which a page becomes
  /// a compaction candidate. The publish that grows a chain to this
  /// length folds it into the page's installed image.
  uint32_t compact_threshold = 16;

  /// Inert: nothing in the engine reads this field. It selected the
  /// removed background compactor thread and stays declared only because
  /// the gtsbench workloads still assign it; it goes with the next change
  /// to the benchmark.
  bool background_compaction = false;

  Status Validate() const {
    if (gutter_capacity == 0) {
      return Status::InvalidArgument("ingest.gutter_capacity must be >= 1");
    }
    if (compact_threshold == 0) {
      return Status::InvalidArgument("ingest.compact_threshold must be >= 1");
    }
    return Status::OK();
  }
};

}  // namespace ingest
}  // namespace gts

#endif  // GTS_INGEST_INGEST_OPTIONS_H_
