// The GtsOptions::transfer block: how topology crosses PCI-E to the GPUs
// (transfer::PageTransfer, page_transfer.h; DESIGN.md §14).
#ifndef GTS_TRANSFER_TRANSFER_OPTIONS_H_
#define GTS_TRANSFER_TRANSFER_OPTIONS_H_

#include <cstdint>
#include <string_view>

namespace gts {
namespace transfer {

/// How topology crosses PCI-E to the GPUs.
enum class TransferMode : uint8_t {
  /// Stream whole slotted pages at the c2 bandwidth (the paper's GTS).
  kPageStream,
  /// EMOGI-style zero-copy: fetch only the active vertices' adjacency
  /// lists at cache-line granularity over the copy engine (kH2DDirect
  /// ops priced by TimeModel::direct_*). Applies to SP pages of counted
  /// traversal levels; LP pages always stream whole, and passes without
  /// a counted frontier (full scans, explicit page passes) fall back to
  /// page streaming for that pass.
  kDirect,
  /// Resolve per level between the two from the frontier's active-edge
  /// density via the cost_model crossover (PreferDirectTransfer).
  kAuto,
};

std::string_view TransferModeName(TransferMode mode);

struct TransferOptions {
  TransferMode mode = TransferMode::kPageStream;
};

}  // namespace transfer
}  // namespace gts

#endif  // GTS_TRANSFER_TRANSFER_OPTIONS_H_
