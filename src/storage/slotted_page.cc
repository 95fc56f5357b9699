#include "storage/slotted_page.h"

#include <algorithm>

namespace gts {

namespace {

/// Opens (`grow`) or closes one entry's width at byte `at` of slot
/// `slot`'s record: moves the records behind it, zeroes a vacated tail,
/// and updates ADJLIST_SZ and the later slots' record offsets.
void ResizeRecord(uint8_t* page, const PageConfig& config, uint32_t slot,
                  uint64_t at, bool grow) {
  const PageView view(page, config);
  const uint32_t n = view.num_slots();
  GTS_DCHECK(slot < n);
  const uint32_t width = config.entry_bytes();
  const uint64_t end = view.records_end();
  GTS_DCHECK(end + (grow ? width : 0) + uint64_t{n} * kSlotBytes <=
             config.page_size);
  if (grow) {
    std::memmove(page + at + width, page + at, end - at);
  } else {
    std::memmove(page + at, page + at + width, end - at - width);
    std::memset(page + end - width, 0, width);
  }
  uint8_t* record = page + view.slot_record_offset(slot);
  uint32_t size = 0;
  std::memcpy(&size, record, sizeof(size));
  size = grow ? size + 1 : size - 1;
  std::memcpy(record, &size, sizeof(size));
  for (uint32_t i = slot + 1; i < n; ++i) {
    uint8_t* off = page + config.page_size - (uint64_t{i} + 1) * kSlotBytes +
                   sizeof(uint64_t);
    uint32_t value = 0;
    std::memcpy(&value, off, sizeof(value));
    value = grow ? value + width : value - width;
    std::memcpy(off, &value, sizeof(value));
  }
}

}  // namespace

PageWriter::PageWriter(uint8_t* buffer, const PageConfig& config,
                       PageKind kind)
    : buffer_(buffer), config_(config) {
  PageHeader header;
  header.kind = static_cast<uint8_t>(kind);
  std::memcpy(buffer_, &header, sizeof(header));
}

uint64_t PageWriter::FreeBytes() const {
  const uint64_t slot_area =
      static_cast<uint64_t>(num_slots()) * kSlotBytes;
  const uint64_t used = record_cursor_ + slot_area;
  return used >= config_.page_size ? 0 : config_.page_size - used;
}

uint32_t PageWriter::AppendRecord(VertexId vid, uint64_t degree) {
  GTS_CHECK(Fits(degree)) << "record does not fit; caller must check Fits()";
  const uint32_t slot = num_slots();
  GTS_CHECK(slot < config_.max_slots()) << "slot number overflows q bytes";

  // Record: ADJLIST_SZ then zeroed entries (filled by SetEntry later).
  const auto adjlist_sz = static_cast<uint32_t>(degree);
  std::memcpy(buffer_ + record_cursor_, &adjlist_sz, sizeof(adjlist_sz));
  record_offsets_.push_back(static_cast<uint32_t>(record_cursor_));

  // Slot: VID | OFF, growing backward from the page end.
  uint8_t* slot_ptr =
      buffer_ + config_.page_size - (static_cast<uint64_t>(slot) + 1) * kSlotBytes;
  const uint64_t vid64 = vid;
  const auto off32 = static_cast<uint32_t>(record_cursor_);
  std::memcpy(slot_ptr, &vid64, sizeof(vid64));
  std::memcpy(slot_ptr + sizeof(vid64), &off32, sizeof(off32));

  record_cursor_ += sizeof(uint32_t) + degree * config_.entry_bytes();
  MutableHeader()->num_slots = slot + 1;
  return slot;
}

void PageWriter::SetEntry(uint32_t slot, uint32_t j, RecordId rid) {
  GTS_DCHECK(slot < record_offsets_.size());
  uint8_t* base = buffer_ + record_offsets_[slot] + sizeof(uint32_t) +
                  static_cast<uint64_t>(j) * config_.entry_bytes();
  EncodeLE(base, rid.pid, config_.pid_bytes);
  EncodeLE(base + config_.pid_bytes, rid.slot, config_.off_bytes);
}

bool HasWriterLayout(const uint8_t* page, const PageConfig& config) {
  const PageView view(page, config);
  const uint64_t slots = uint64_t{view.num_slots()} * kSlotBytes;
  if (kPageHeaderBytes + slots > config.page_size) return false;
  const uint64_t slot_dir = config.page_size - slots;
  uint64_t next = kPageHeaderBytes;
  for (uint32_t i = 0; i < view.num_slots(); ++i) {
    if (view.slot_record_offset(i) != next ||
        next + sizeof(uint32_t) > slot_dir) {
      return false;
    }
    next += sizeof(uint32_t) +
            uint64_t{view.adjlist_size(i)} * config.entry_bytes();
  }
  return next <= slot_dir && std::all_of(page + next, page + slot_dir,
                                         [](uint8_t b) { return b == 0; });
}

void AppendEntryInPlace(uint8_t* page, const PageConfig& config,
                        uint32_t slot, RecordId rid) {
  const PageView view(page, config);
  const uint64_t at = view.slot_record_offset(slot) + sizeof(uint32_t) +
                      uint64_t{view.adjlist_size(slot)} * config.entry_bytes();
  ResizeRecord(page, config, slot, at, /*grow=*/true);
  EncodeLE(page + at, rid.pid, config.pid_bytes);
  EncodeLE(page + at + config.pid_bytes, rid.slot, config.off_bytes);
}

void EraseEntryInPlace(uint8_t* page, const PageConfig& config, uint32_t slot,
                       uint32_t j) {
  const PageView view(page, config);
  GTS_DCHECK(j < view.adjlist_size(slot));
  ResizeRecord(page, config, slot,
               view.slot_record_offset(slot) + sizeof(uint32_t) +
                   uint64_t{j} * config.entry_bytes(),
               /*grow=*/false);
}

}  // namespace gts
