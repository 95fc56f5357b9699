// Binary and text edge-list persistence.
#ifndef GTS_GRAPH_GRAPH_IO_H_
#define GTS_GRAPH_GRAPH_IO_H_

#include <cstdint>
#include <istream>
#include <string>

#include "common/status.h"
#include "graph/edge_list.h"

namespace gts {

/// Writes `list` to `path` in the GTS binary edge format:
/// magic "GTSG" | u32 version | u64 num_vertices | u64 num_edges |
/// num_edges x (u64 src, u64 dst), all little-endian.
Status WriteEdgeListBinary(const EdgeList& list, const std::string& path);

/// Reads a file written by WriteEdgeListBinary. A bad magic or version, an
/// edge count larger than the file holds, or a truncated file is
/// Corruption.
Result<EdgeList> ReadEdgeListBinary(const std::string& path);

/// Bytes from the read position of `in` to the end of its file. The binary
/// readers check each count in a header against it before they allocate.
uint64_t BytesLeft(std::istream& in);

/// Writes one "src dst\n" line per edge (SNAP-style; '#' comments allowed on
/// read). num_vertices on read is 1 + max endpoint.
Status WriteEdgeListText(const EdgeList& list, const std::string& path);
Result<EdgeList> ReadEdgeListText(const std::string& path);

}  // namespace gts

#endif  // GTS_GRAPH_GRAPH_IO_H_
