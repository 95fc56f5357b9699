// Slotted-page format configuration: the generalized (p,q)-byte physical-ID
// scheme of Section 6.1 plus the page size.
#ifndef GTS_STORAGE_PAGE_CONFIG_H_
#define GTS_STORAGE_PAGE_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/units.h"

namespace gts {

/// Physical-ID and page-size configuration.
///
/// A record ID ("physical ID") is (ADJ_PID, ADJ_OFF): `pid_bytes` bytes of
/// page id plus `off_bytes` bytes of slot number. The paper uses (2,2) for
/// RMAT27-29 and the real graphs, and (3,3) with 64 MB pages for RMAT30-32.
///
/// Repro-scale page sizes: (3,3) scales 64 MB -> 64 KiB linearly; (2,2)
/// uses 4 KiB rather than a strict 1/1024 because heavy-tailed degree
/// distributions do not scale linearly -- with 1 KiB pages almost half of
/// all pages would be LPs, where the paper's datasets are overwhelmingly
/// SPs (Table 3). 4 KiB restores that shape (~85% SPs on scaled RMAT27).
struct PageConfig {
  uint32_t pid_bytes = 2;   ///< p: bytes of ADJ_PID
  uint32_t off_bytes = 2;   ///< q: bytes of ADJ_OFF (slot number)
  uint64_t page_size = 4 * kKiB;

  /// The paper's (2,2) configuration at repro scale.
  static PageConfig Small22() { return PageConfig{2, 2, 4 * kKiB}; }
  /// The paper's (3,3) configuration at repro scale (64 KiB pages).
  static PageConfig Big33() { return PageConfig{3, 3, 64 * kKiB}; }

  /// Widest p or q: page ids and slot numbers are 32-bit, and the page
  /// walk decodes an entry with one 64-bit load (see AdjList).
  static constexpr uint32_t kMaxIdBytes = 4;

  /// True when 1 <= p, q <= kMaxIdBytes. PageBuilder::Build and
  /// ReadPagedGraph reject any other config.
  bool HasValidIdWidths() const {
    return pid_bytes >= 1 && pid_bytes <= kMaxIdBytes && off_bytes >= 1 &&
           off_bytes <= kMaxIdBytes;
  }

  /// Bytes of one adjacency-list entry (one neighbor's record ID).
  uint64_t entry_bytes() const { return pid_bytes + off_bytes; }

  /// Maximum representable page id (exclusive): 2^(8p).
  uint64_t max_pages() const { return uint64_t{1} << (8 * pid_bytes); }

  /// Maximum representable slot number (exclusive): 2^(8q).
  uint64_t max_slots() const { return uint64_t{1} << (8 * off_bytes); }

  std::string ToString() const {
    return "(p=" + std::to_string(pid_bytes) +
           ",q=" + std::to_string(off_bytes) +
           ",page=" + FormatBytes(page_size) + ")";
  }
};

/// One row of the paper's Table 2: limits of a (p,q) split of a B-byte
/// physical ID, under the paper's field-size assumptions (ADJLIST_SZ 4 B,
/// VID 6 B, OFF 4 B, one adjacency entry p+q bytes).
struct PhysicalIdLimits {
  uint32_t p = 0;
  uint32_t q = 0;
  uint64_t max_page_id = 0;      ///< 2^(8p)
  uint64_t max_slot_number = 0;  ///< 2^(8q)
  uint64_t max_page_bytes = 0;   ///< max slots * (4 + 6 + 4 + entry)
};

/// Computes Table 2 for a total physical-ID width of `total_bytes`.
/// Returned rows cover every split with p >= 1 and q >= 1.
PhysicalIdLimits ComputePhysicalIdLimits(uint32_t p, uint32_t q);

}  // namespace gts

#endif  // GTS_STORAGE_PAGE_CONFIG_H_
