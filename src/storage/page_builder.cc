#include "storage/page_builder.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "common/logging.h"

namespace gts {

namespace {

/// Mutable build state for one page being assembled.
struct OpenPage {
  PageId pid = kInvalidPageId;
  VertexId start_vid = 0;
  std::vector<uint8_t> bytes;
  std::unique_ptr<PageWriter> writer;
};

/// Writes one list of p+q-byte entries (one record's entries in one
/// page): entry j holds the record ID of `neighbors[j]`. It mirrors
/// AdjList's decoder: entry j is the word `pid | slot << 8p`, written with
/// one unaligned 64-bit store. A store spills past its entry only into the
/// list's later entries, which overwrite the spill; the last entries, where
/// 8 bytes would cross the list's end, are written with exactly p+q bytes,
/// so nothing after the list changes.
void EncodeEntries(uint8_t* entries, std::span<const VertexId> neighbors,
                   const std::vector<RecordId>& locations,
                   const PageConfig& config) {
  const uint64_t width = config.entry_bytes();
  const uint32_t pid_bits = 8 * config.pid_bytes;
  const uint64_t end = neighbors.size() * width;
  auto word = [&](size_t j) {
    const RecordId rid = locations[neighbors[j]];
    return uint64_t{rid.pid} | uint64_t{rid.slot} << pid_bits;
  };
  size_t j = 0;
  for (; j * width + sizeof(uint64_t) <= end; ++j) {
    const uint64_t w = word(j);
    std::memcpy(entries + j * width, &w, sizeof(w));
  }
  for (; j < neighbors.size(); ++j) {
    const uint64_t w = word(j);
    std::memcpy(entries + j * width, &w, width);
  }
}

}  // namespace

Result<PagedGraph> PageBuilder::Build(const CsrGraph& graph) const {
  if (!config_.HasValidIdWidths()) {
    return Status::InvalidArgument("p and q must each be in [1, 4]: " +
                                   config_.ToString());
  }
  const VertexId n = graph.num_vertices();
  const uint64_t usable =
      config_.page_size > kPageHeaderBytes ? config_.page_size - kPageHeaderBytes : 0;
  // Max adjacency entries a single (large) page can hold for one record.
  const uint64_t lp_entry_capacity =
      usable > (sizeof(uint32_t) + kSlotBytes)
          ? (usable - sizeof(uint32_t) - kSlotBytes) / config_.entry_bytes()
          : 0;
  if (lp_entry_capacity == 0) {
    return Status::InvalidArgument("page size too small: " +
                                   config_.ToString());
  }

  PagedGraph out;
  out.config_ = config_;
  out.num_vertices_ = n;
  out.num_edges_ = graph.num_edges();
  out.locations_.resize(n);

  std::vector<RvtEntry> rvt;
  OpenPage open;  // current SP under construction; pid == invalid if none

  auto start_sp = [&](VertexId first_vid) -> Status {
    if (out.pages_.size() >= config_.max_pages()) {
      return Status::CapacityExceeded(
          "page count exceeds 2^(8p) for p=" +
          std::to_string(config_.pid_bytes));
    }
    open.pid = static_cast<PageId>(out.pages_.size());
    open.start_vid = first_vid;
    open.bytes.assign(config_.page_size, 0);
    open.writer = std::make_unique<PageWriter>(open.bytes.data(), config_,
                                               PageKind::kSmall);
    out.pages_.emplace_back();  // placeholder; filled on flush
    rvt.push_back(RvtEntry{first_vid, 0});
    out.small_page_ids_.push_back(open.pid);
    return Status::OK();
  };

  auto flush_sp = [&] {
    if (open.pid == kInvalidPageId) return;
    out.pages_[open.pid] = std::move(open.bytes);
    open.pid = kInvalidPageId;
    open.writer.reset();
  };

  // ---- Pass 1: layout ------------------------------------------------
  for (VertexId v = 0; v < n; ++v) {
    const uint64_t degree = graph.out_degree(v);
    const uint64_t footprint =
        sizeof(uint32_t) + degree * config_.entry_bytes() + kSlotBytes;

    const bool is_lp_vertex = footprint > usable;
    if (!is_lp_vertex) {
      if (open.pid == kInvalidPageId || !open.writer->Fits(degree)) {
        flush_sp();
        GTS_RETURN_IF_ERROR(start_sp(v));
      }
      if (open.writer->num_slots() >= config_.max_slots()) {
        // Slot number would overflow q bytes: close this page first.
        flush_sp();
        GTS_RETURN_IF_ERROR(start_sp(v));
      }
      const uint32_t slot = open.writer->AppendRecord(v, degree);
      out.locations_[v] = RecordId{open.pid, slot};
      continue;
    }

    // Large vertex: terminate the current SP (keeps VIDs in SPs gap-free)
    // and emit ceil(degree / capacity) LPs.
    flush_sp();
    const uint64_t num_chunks =
        (degree + lp_entry_capacity - 1) / lp_entry_capacity;
    if (out.pages_.size() + num_chunks > config_.max_pages()) {
      return Status::CapacityExceeded(
          "page count exceeds 2^(8p) for p=" +
          std::to_string(config_.pid_bytes));
    }
    for (uint64_t chunk = 0; chunk < num_chunks; ++chunk) {
      const auto pid = static_cast<PageId>(out.pages_.size());
      const uint64_t chunk_entries =
          std::min(lp_entry_capacity, degree - chunk * lp_entry_capacity);
      std::vector<uint8_t> bytes(config_.page_size, 0);
      PageWriter writer(bytes.data(), config_, PageKind::kLarge);
      writer.set_lp_chunk_index(static_cast<uint32_t>(chunk));
      writer.set_lp_total_degree(static_cast<uint32_t>(degree));
      const uint32_t slot = writer.AppendRecord(v, chunk_entries);
      GTS_CHECK(slot == 0);
      out.pages_.push_back(std::move(bytes));
      out.large_page_ids_.push_back(pid);
      rvt.push_back(
          RvtEntry{v, static_cast<uint32_t>(num_chunks - 1 - chunk)});
      if (chunk == 0) out.locations_[v] = RecordId{pid, 0};
    }
  }
  flush_sp();
  out.rvt_ = Rvt(std::move(rvt));

  // ---- Pass 2: fill adjacency entries with physical record IDs --------
  for (VertexId v = 0; v < n; ++v) {
    const auto neighbors = graph.neighbors(v);
    const RecordId loc = out.locations_[v];
    if (out.kind(loc.pid) == PageKind::kSmall) {
      uint8_t* page = out.pages_[loc.pid].data();
      const PageView view(page, config_);
      EncodeEntries(page + view.slot_record_offset(loc.slot) + sizeof(uint32_t),
                    neighbors, out.locations_, config_);
    } else {
      // Entries spread over this vertex's run of LPs, which are consecutive
      // page ids starting at loc.pid.
      size_t j = 0;
      for (PageId pid = loc.pid; j < neighbors.size(); ++pid) {
        uint8_t* page = out.pages_[pid].data();
        const PageView view(page, config_);
        const uint32_t in_page = view.adjlist_size(0);
        EncodeEntries(page + view.slot_record_offset(0) + sizeof(uint32_t),
                      neighbors.subspan(j, in_page), out.locations_, config_);
        j += in_page;
      }
    }
  }

  return out;
}

}  // namespace gts
