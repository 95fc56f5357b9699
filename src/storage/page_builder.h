// Builds the slotted-page representation of a graph (Section 2 / 6.1).
#ifndef GTS_STORAGE_PAGE_BUILDER_H_
#define GTS_STORAGE_PAGE_BUILDER_H_

#include "common/status.h"
#include "graph/csr_graph.h"
#include "storage/page_config.h"
#include "storage/paged_graph.h"

namespace gts {

/// Two-pass builder.
///
/// Pass 1 lays vertices out in ascending VID order: consecutive low-degree
/// vertices pack into Small Pages; a vertex whose record cannot fit in one
/// empty page becomes a run of Large Pages. Because RVT translation is
/// `start_vid + slot`, the VIDs within an SP must be gap-free, so an LP
/// vertex always terminates the current SP.
///
/// Pass 2 writes each adjacency entry as the neighbor's physical record ID,
/// one unaligned 64-bit store per entry; no store writes past the end of
/// the list it belongs to.
///
/// Fails with InvalidArgument when p or q is outside [1, 4] or the page is
/// too small for one entry, and with CapacityExceeded when the (p,q)
/// configuration cannot address the graph (too many pages, or a slot
/// number overflowing q bytes).
class PageBuilder {
 public:
  explicit PageBuilder(PageConfig config) : config_(config) {}

  Result<PagedGraph> Build(const CsrGraph& graph) const;

 private:
  PageConfig config_;
};

/// Convenience: CSR -> pages with the given config.
inline Result<PagedGraph> BuildPagedGraph(const CsrGraph& graph,
                                          PageConfig config) {
  return PageBuilder(config).Build(graph);
}

}  // namespace gts

#endif  // GTS_STORAGE_PAGE_BUILDER_H_
