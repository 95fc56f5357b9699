// Knobs of the gts::io storage I/O engine (the GtsOptions::io block).
//
// The io engine replaces the engine's old synchronous Fetch path with
// per-device submission queues: the prefetcher keeps each device's queue
// primed from the pass's page order, and an in-device
// scheduler picks which queued request to service next. The defaults
// (depth 1, FIFO) reproduce the pre-io-engine schedule byte for byte.
#ifndef GTS_IO_IO_OPTIONS_H_
#define GTS_IO_IO_OPTIONS_H_

#include <cstdint>
#include <string_view>

#include "common/status.h"

namespace gts {
namespace io {

/// How a device services its submission queue.
enum class IoReorderKind : uint8_t {
  /// Strict submission order. With depth 1 this is exactly the old
  /// synchronous fetch path; deeper queues change nothing but the window
  /// bookkeeping (every request still pays the full per-request cost).
  kFifo,
  /// Elevator (C-SCAN): service the queued request with the lowest offset
  /// at or after the head, wrapping to the lowest offset when none is
  /// ahead. Cuts head travel on latency-bound devices; every request
  /// still pays the full ReadCost.
  kElevator,
  /// Elevator order, and a request whose offset directly continues the
  /// previous read is merged into that sequential burst: it is charged
  /// SequentialReadCost (transfer only), the per-request access latency
  /// having been paid by the burst's first request.
  kSequentialMerge,
};

std::string_view IoReorderKindName(IoReorderKind kind);

/// The io block inside GtsOptions; validated by GtsOptions::Validate().
struct IoOptions {
  /// Requests a device queue holds at once; the in-device scheduler
  /// reorders within this window. 1 = no lookahead (paper-exact default).
  int queue_depth = 1;
  IoReorderKind reorder = IoReorderKind::kFifo;
  /// Per-device bound on requests in flight (queued + completed-but-not-
  /// yet-consumed). The prefetcher stops priming a device at this bound
  /// and the engine surfaces the rejection as io.backpressure (like
  /// cache_backpressure: the page simply waits for demand). 0 = auto
  /// (2 x queue_depth). Explicit values must be >= queue_depth.
  int inflight_slots = 0;

  /// After each pass's WA download, spill every GPU's downloaded WA
  /// replica/chunk to its storage device through the device queue (one
  /// kStorageWrite per GPU, past the striped page region). Off by
  /// default: the paper keeps WA host-resident, so the spill is a
  /// persistence/out-of-core extension -- but when on, the writes are
  /// scheduled and traced like reads instead of bypassing the queue.
  bool wa_snapshot = false;

  /// Effective per-device slot bound after resolving the 0 = auto default.
  int ResolvedSlots() const {
    return inflight_slots == 0 ? 2 * queue_depth : inflight_slots;
  }

  Status Validate() const;
};

}  // namespace io
}  // namespace gts

#endif  // GTS_IO_IO_OPTIONS_H_
