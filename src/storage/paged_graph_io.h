// Persistence for the slotted-page representation.
//
// The paper stores graphs on PCI-E SSDs in the slotted page format and
// reuses them across runs; these functions serialize a built PagedGraph
// (pages + RVT + vertex locations) so the expensive page build happens
// once. Format (little-endian):
//
//   magic "GTSP" | u32 version | PageConfig{p,q,page_size} |
//   u64 num_vertices | u64 num_edges | u64 num_pages |
//   num_pages x RvtEntry | num_vertices x RecordId |
//   num_pages x page bytes
#ifndef GTS_STORAGE_PAGED_GRAPH_IO_H_
#define GTS_STORAGE_PAGED_GRAPH_IO_H_

#include <string>

#include "common/status.h"
#include "storage/paged_graph.h"

namespace gts {

/// Writes the full paged representation to `path`.
Status WritePagedGraph(const PagedGraph& graph, const std::string& path);

/// Loads a file written by WritePagedGraph. A bad magic or version, p or
/// q outside [1, 4], a page smaller than its header, a count or page size
/// larger than the file holds, or a truncated file is Corruption.
Result<PagedGraph> ReadPagedGraph(const std::string& path);

}  // namespace gts

#endif  // GTS_STORAGE_PAGED_GRAPH_IO_H_
