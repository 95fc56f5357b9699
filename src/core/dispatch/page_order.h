// The order pages are streamed within one pass. Ordering is a pure
// permutation -- it never changes *what* runs, only when -- which is the
// order-equivalence guarantee the dispatch tests pin down (identical
// algorithm results across orders).
#ifndef GTS_CORE_DISPATCH_PAGE_ORDER_H_
#define GTS_CORE_DISPATCH_PAGE_ORDER_H_

#include <functional>
#include <vector>

#include "core/dispatch/dispatch_options.h"
#include "graph/types.h"
#include "obs/metrics.h"

namespace gts {

/// Pass-scoped inputs an order may consult. A null callback means the
/// information does not exist for this pass (it is not a counted
/// traversal level); the order then degrades to the paper default.
struct PageOrderContext {
  /// Slots the current frontier activated in `pid` (PidSet counting).
  std::function<uint32_t(PageId)> frontier_count;
};

/// Builds one pass's work list from the SP and LP sublists (each in
/// ascending pid order, LP continuation chunks directly after their
/// base) and returns a permutation of sps + lps. `registry` may be null;
/// with one, the pass is counted in `dispatch.passes` and
/// `dispatch.pages_ordered`, and the frontier-density order publishes its
/// decisions as `dispatch.order.density_sorted`.
std::vector<PageId> OrderPages(PageOrderKind kind, std::vector<PageId> sps,
                               std::vector<PageId> lps,
                               const PageOrderContext& ctx,
                               obs::MetricsRegistry* registry);

}  // namespace gts

#endif  // GTS_CORE_DISPATCH_PAGE_ORDER_H_
