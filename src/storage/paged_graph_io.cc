#include "storage/paged_graph_io.h"

#include <cstring>
#include <fstream>
#include <vector>

#include "graph/graph_io.h"

namespace gts {

namespace {
constexpr char kMagic[4] = {'G', 'T', 'S', 'P'};
constexpr uint32_t kVersion = 1;

struct FileHeader {
  char magic[4];
  uint32_t version;
  uint32_t pid_bytes;
  uint32_t off_bytes;
  uint64_t page_size;
  uint64_t num_vertices;
  uint64_t num_edges;
  uint64_t num_pages;
};

struct RvtRecord {
  uint64_t start_vid;
  uint32_t lp_more;
  uint32_t kind;  // PageKind, for rebuilding the SP/LP id lists
};

struct LocationRecord {
  uint32_t pid;
  uint32_t slot;
};
}  // namespace

Status WritePagedGraph(const PagedGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);

  FileHeader header{};
  std::memcpy(header.magic, kMagic, 4);
  header.version = kVersion;
  header.pid_bytes = graph.config().pid_bytes;
  header.off_bytes = graph.config().off_bytes;
  header.page_size = graph.config().page_size;
  header.num_vertices = graph.num_vertices();
  header.num_edges = graph.num_edges();
  header.num_pages = graph.num_pages();
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));

  for (PageId pid = 0; pid < graph.num_pages(); ++pid) {
    const RvtEntry& entry = graph.rvt().entry(pid);
    RvtRecord record{entry.start_vid, entry.lp_more,
                     static_cast<uint32_t>(graph.kind(pid))};
    out.write(reinterpret_cast<const char*>(&record), sizeof(record));
  }
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const RecordId loc = graph.VertexLocation(v);
    LocationRecord record{loc.pid, loc.slot};
    out.write(reinterpret_cast<const char*>(&record), sizeof(record));
  }
  for (PageId pid = 0; pid < graph.num_pages(); ++pid) {
    out.write(reinterpret_cast<const char*>(graph.page_bytes(pid).data()),
              static_cast<std::streamsize>(graph.config().page_size));
  }
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

Result<PagedGraph> ReadPagedGraph(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);

  FileHeader header{};
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in || std::memcmp(header.magic, kMagic, 4) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  if (header.version != kVersion) {
    return Status::Corruption("unsupported paged-graph version in " + path);
  }

  PagedGraph graph;
  graph.config_ = PageConfig{header.pid_bytes, header.off_bytes,
                             header.page_size};
  if (!graph.config_.HasValidIdWidths()) {
    return Status::Corruption("bad (p,q) " + graph.config_.ToString() +
                              " in " + path);
  }
  graph.num_vertices_ = header.num_vertices;
  graph.num_edges_ = header.num_edges;
  // Check every count against what the file holds before allocating.
  uint64_t left = BytesLeft(in);
  if (header.num_pages > left / sizeof(RvtRecord)) {
    return Status::Corruption("page count exceeds the file: " + path);
  }
  left -= header.num_pages * sizeof(RvtRecord);
  if (header.num_vertices > left / sizeof(LocationRecord)) {
    return Status::Corruption("vertex count exceeds the file: " + path);
  }
  left -= header.num_vertices * sizeof(LocationRecord);
  if (header.num_pages > 0 && (header.page_size < kPageHeaderBytes ||
                               header.num_pages > left / header.page_size)) {
    return Status::Corruption("pages exceed the file: " + path);
  }

  std::vector<RvtEntry> rvt(header.num_pages);
  for (uint64_t pid = 0; pid < header.num_pages; ++pid) {
    RvtRecord record{};
    in.read(reinterpret_cast<char*>(&record), sizeof(record));
    if (!in) return Status::Corruption("truncated RVT in " + path);
    rvt[pid] = RvtEntry{record.start_vid, record.lp_more};
    if (static_cast<PageKind>(record.kind) == PageKind::kSmall) {
      graph.small_page_ids_.push_back(static_cast<PageId>(pid));
    } else {
      graph.large_page_ids_.push_back(static_cast<PageId>(pid));
    }
  }
  graph.rvt_ = Rvt(std::move(rvt));

  graph.locations_.resize(header.num_vertices);
  for (uint64_t v = 0; v < header.num_vertices; ++v) {
    LocationRecord record{};
    in.read(reinterpret_cast<char*>(&record), sizeof(record));
    if (!in) return Status::Corruption("truncated locations in " + path);
    graph.locations_[v] = RecordId{record.pid, record.slot};
  }

  graph.pages_.resize(header.num_pages);
  for (uint64_t pid = 0; pid < header.num_pages; ++pid) {
    graph.pages_[pid].resize(header.page_size);
    in.read(reinterpret_cast<char*>(graph.pages_[pid].data()),
            static_cast<std::streamsize>(header.page_size));
    if (!in) return Status::Corruption("truncated pages in " + path);
  }
  return graph;
}

}  // namespace gts
