// The slotted page format (Section 2, Figure 1): records grow forward from
// the start of a fixed-size page, slots grow backward from the end.
//
// Byte layout of a page (little-endian throughout):
//
//   [ PageHeader (16 B) | records ... free ... slots ]
//
//   record  := ADJLIST_SZ (u32) | ADJLIST_SZ x entry (p+q bytes each)
//   entry   := ADJ_PID (p bytes) | ADJ_OFF (q bytes)      -- a "record ID"
//   slot i  := VID (u64) | OFF (u32); stored at
//              page_size - (i+1) * kSlotBytes
//
// Since the slot directory sits at the end of the page, at least
// kSlotBytes follow the last byte of every record.
//
// A Small Page (SP) holds the records of consecutive low-degree vertices.
// A Large Page (LP) holds one chunk of the adjacency list of a single
// high-degree vertex; the vertex's full list may span several LPs.
#ifndef GTS_STORAGE_SLOTTED_PAGE_H_
#define GTS_STORAGE_SLOTTED_PAGE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "graph/types.h"
#include "storage/page_config.h"

namespace gts {

/// Page kind discriminator stored in the header.
enum class PageKind : uint8_t { kSmall = 0, kLarge = 1 };

/// A record ID: the physical address of a vertex (Figure 1's ADJ_PID /
/// ADJ_OFF pair). Decoded form; on the page it occupies p+q bytes.
struct RecordId {
  PageId pid = kInvalidPageId;
  uint32_t slot = 0;

  friend bool operator==(const RecordId&, const RecordId&) = default;
};

/// Fixed 16-byte page header.
struct PageHeader {
  uint32_t num_slots = 0;
  uint8_t kind = 0;  // PageKind
  uint8_t reserved0[3] = {};
  uint32_t lp_chunk_index = 0;   // for LPs: which chunk of the vertex's list
  uint32_t lp_total_degree = 0;  // for LPs: the vertex's full out-degree
};
static_assert(sizeof(PageHeader) == 16, "header layout");

inline constexpr uint64_t kPageHeaderBytes = sizeof(PageHeader);
inline constexpr uint64_t kSlotBytes = 12;  // u64 VID + u32 OFF

/// Encodes `value` into `bytes` little-endian at `dst`.
inline void EncodeLE(uint8_t* dst, uint64_t value, uint32_t bytes) {
  for (uint32_t i = 0; i < bytes; ++i) {
    dst[i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

/// Decodes `bytes` little-endian bytes starting at `src`.
inline uint64_t DecodeLE(const uint8_t* src, uint32_t bytes) {
  uint64_t value = 0;
  for (uint32_t i = 0; i < bytes; ++i) {
    value |= static_cast<uint64_t>(src[i]) << (8 * i);
  }
  return value;
}

// Multi-byte page fields (header, slots, entries) are read with host loads.
static_assert(std::endian::native == std::endian::little,
              "the page format is little-endian");

/// One slot's record, located once: ADJLIST_SZ and the p+q-byte entries
/// that follow it. Get one from PageView::adj_list; it points into the
/// page and is valid while the page bytes are.
///
/// Each entry decodes with one unaligned 64-bit load and two masks. That
/// needs 1 <= p, q <= 4 (PageConfig::HasValidIdWidths, enforced where a
/// config enters: PageBuilder::Build and ReadPagedGraph): the load then
/// reads at most 6 bytes past the entry, and the slot directory after
/// the last record keeps those bytes inside the page.
class AdjList {
 public:
  AdjList() = default;

  /// ADJLIST_SZ: number of neighbors stored in this page.
  uint32_t size() const { return size_; }

  /// j-th adjacency entry (record ID of a neighbor); j < size().
  RecordId operator[](uint32_t j) const {
    uint64_t word;
    std::memcpy(&word, entries_ + static_cast<uint64_t>(j) * entry_bytes_,
                sizeof(word));
    return RecordId{
        static_cast<PageId>(word & LowBits(pid_bits_)),
        static_cast<uint32_t>((word >> pid_bits_) & LowBits(off_bits_))};
  }

 private:
  friend class PageView;

  static uint64_t LowBits(uint32_t bits) {
    return (uint64_t{1} << bits) - 1;
  }

  const uint8_t* entries_ = nullptr;
  uint32_t size_ = 0;
  uint8_t entry_bytes_ = 0;  // p + q
  uint8_t pid_bits_ = 0;     // 8p
  uint8_t off_bits_ = 0;     // 8q
};

/// Read-only view over one slotted page buffer.
///
/// The view does not own the bytes; the engine points it at SPBuf / LPBuf /
/// cache slots in (simulated) device memory.
class PageView {
 public:
  PageView() = default;
  PageView(const uint8_t* data, const PageConfig& config)
      : data_(data), config_(config) {}

  const uint8_t* data() const { return data_; }
  const PageConfig& config() const { return config_; }

  const PageHeader& header() const {
    return *reinterpret_cast<const PageHeader*>(data_);
  }
  PageKind kind() const { return static_cast<PageKind>(header().kind); }
  uint32_t num_slots() const { return header().num_slots; }

  /// Logical vertex id stored in slot `i`.
  VertexId slot_vid(uint32_t i) const {
    uint64_t v;
    std::memcpy(&v, SlotPtr(i), sizeof(v));
    return v;
  }

  /// Byte offset (from page start) of slot i's record.
  uint32_t slot_record_offset(uint32_t i) const {
    uint32_t off;
    std::memcpy(&off, SlotPtr(i) + sizeof(uint64_t), sizeof(off));
    return off;
  }

  /// Slot i's record, located once: walk its entries through the
  /// returned list rather than calling adj_entry per entry, which
  /// locates the record again every time.
  AdjList adj_list(uint32_t i) const {
    const uint8_t* record = data_ + slot_record_offset(i);
    AdjList list;
    std::memcpy(&list.size_, record, sizeof(list.size_));
    list.entries_ = record + sizeof(uint32_t);
    list.entry_bytes_ = static_cast<uint8_t>(config_.entry_bytes());
    list.pid_bits_ = static_cast<uint8_t>(8 * config_.pid_bytes);
    list.off_bits_ = static_cast<uint8_t>(8 * config_.off_bytes);
    return list;
  }

  /// ADJLIST_SZ of slot i's record: number of neighbors in this page.
  uint32_t adjlist_size(uint32_t i) const { return adj_list(i).size(); }

  /// j-th adjacency entry (record ID of a neighbor) of slot i's record.
  RecordId adj_entry(uint32_t i, uint32_t j) const { return adj_list(i)[j]; }

  /// Total adjacency entries stored in this page (all records).
  uint64_t total_entries() const {
    uint64_t total = 0;
    for (uint32_t i = 0; i < num_slots(); ++i) total += adjlist_size(i);
    return total;
  }

  /// Byte offset just past the last slot's record: where the free space
  /// begins when records lie in slot order, as PageWriter lays them out.
  uint64_t records_end() const {
    const uint32_t n = num_slots();
    if (n == 0) return kPageHeaderBytes;
    return slot_record_offset(n - 1) + sizeof(uint32_t) +
           uint64_t{adjlist_size(n - 1)} * config_.entry_bytes();
  }

 private:
  const uint8_t* SlotPtr(uint32_t i) const {
    GTS_DCHECK(i < num_slots());
    return data_ + config_.page_size - (static_cast<uint64_t>(i) + 1) * kSlotBytes;
  }

  const uint8_t* data_ = nullptr;
  PageConfig config_;
};

/// Incremental writer for one page buffer. Used by the page builder.
class PageWriter {
 public:
  /// `buffer` must hold config.page_size zeroed bytes and outlive the writer.
  PageWriter(uint8_t* buffer, const PageConfig& config, PageKind kind);

  /// Bytes a record with `degree` neighbors consumes (record + its slot).
  uint64_t RecordFootprint(uint64_t degree) const {
    return sizeof(uint32_t) + degree * config_.entry_bytes() + kSlotBytes;
  }

  /// Free bytes remaining between the record area and the slot area.
  uint64_t FreeBytes() const;

  /// True if a record with `degree` neighbors still fits.
  bool Fits(uint64_t degree) const {
    return RecordFootprint(degree) <= FreeBytes();
  }

  /// Appends a record for `vid` with `degree` reserved entries; neighbors
  /// are filled in later via SetEntry (two-pass build). Returns the slot
  /// number. Caller must have checked Fits().
  uint32_t AppendRecord(VertexId vid, uint64_t degree);

  /// Writes neighbor entry j of slot i.
  void SetEntry(uint32_t slot, uint32_t j, RecordId rid);

  void set_lp_chunk_index(uint32_t chunk) {
    MutableHeader()->lp_chunk_index = chunk;
  }
  void set_lp_total_degree(uint32_t degree) {
    MutableHeader()->lp_total_degree = degree;
  }

  uint32_t num_slots() const {
    return reinterpret_cast<const PageHeader*>(buffer_)->num_slots;
  }

 private:
  PageHeader* MutableHeader() {
    return reinterpret_cast<PageHeader*>(buffer_);
  }

  uint8_t* buffer_;
  PageConfig config_;
  uint64_t record_cursor_ = kPageHeaderBytes;  // next free record byte
  std::vector<uint32_t> record_offsets_;       // per-slot record offset
};

// In-place edits of a page in PageWriter's layout: records back to back
// in slot order from the header, then zeros up to the slot directory.
// Each edit keeps that layout, so the result is the page PageWriter
// would write for the new content.

/// True if `page` has PageWriter's layout.
bool HasWriterLayout(const uint8_t* page, const PageConfig& config);

/// Appends `rid` to slot `slot`'s adjacency: the later records move up by
/// one entry and their slots' offsets follow. The page must have room
/// for one more entry.
void AppendEntryInPlace(uint8_t* page, const PageConfig& config,
                        uint32_t slot, RecordId rid);

/// Deletes entry `j` of slot `slot`: the later records move down over it,
/// the vacated tail is zeroed and the later slots' offsets follow.
void EraseEntryInPlace(uint8_t* page, const PageConfig& config, uint32_t slot,
                       uint32_t j);

}  // namespace gts

#endif  // GTS_STORAGE_SLOTTED_PAGE_H_
