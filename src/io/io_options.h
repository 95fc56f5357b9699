// Knobs of the gts::io storage read/write path (the GtsOptions::io block).
//
// Every page read happens when the engine demands the page, in demand
// order, at the device's full per-request ReadCost; the defaults are the
// paper's pricing (Section 7.5).
#ifndef GTS_IO_IO_OPTIONS_H_
#define GTS_IO_IO_OPTIONS_H_

namespace gts {
namespace io {

/// The io block inside GtsOptions.
struct IoOptions {
  /// A page read that starts exactly where the previous read or write on
  /// its device ended (in the same pass) continues that sequential burst:
  /// it is charged SequentialReadCost (transfer only), the per-request
  /// access latency having been paid by the burst's first request. Off by
  /// default: the paper charges every page read in full.
  bool merge_sequential = false;

  /// After each pass's WA download, spill every GPU's downloaded WA
  /// replica/chunk to its storage device (one kStorageWrite per GPU, past
  /// the striped page region). Off by default: the paper keeps WA
  /// host-resident, so the spill is a persistence/out-of-core extension
  /// -- but when on, the writes are priced and traced like reads.
  bool wa_snapshot = false;
};

}  // namespace io
}  // namespace gts

#endif  // GTS_IO_IO_OPTIONS_H_
