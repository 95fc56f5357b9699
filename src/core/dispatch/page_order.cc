#include "core/dispatch/page_order.h"

#include <algorithm>

namespace gts {

std::vector<PageId> OrderPages(PageOrderKind kind, std::vector<PageId> sps,
                               std::vector<PageId> lps,
                               const PageOrderContext& ctx,
                               obs::MetricsRegistry* registry) {
  if (registry != nullptr) {
    registry->GetCounter("dispatch.passes").Add();
    registry->GetCounter("dispatch.pages_ordered").Add(sps.size() + lps.size());
  }
  switch (kind) {
    case PageOrderKind::kSpThenLp:
      // Paper default (Section 3.2): one SP pass, then one LP pass, so
      // each stream sees long same-kind runs and pays no kernel-switch
      // overhead.
      break;
    case PageOrderKind::kInterleaved:
      // Ablation: a single pid-sorted pass mixing SPs and LPs.
      sps.insert(sps.end(), lps.begin(), lps.end());
      std::sort(sps.begin(), sps.end());
      return sps;
    case PageOrderKind::kFrontierDensity:
      // Densest frontier pages first: within each class, stable-sort by
      // the number of slots the frontier activated (descending; ties keep
      // the ascending pid order). LP continuation chunks carry no
      // activation of their own and sort to the back of the LP group,
      // which is harmless -- every chunk still runs exactly once this
      // level.
      if (ctx.frontier_count != nullptr) {
        for (auto* group : {&sps, &lps}) {
          std::stable_sort(group->begin(), group->end(),
                           [&ctx](PageId a, PageId b) {
                             return ctx.frontier_count(a) >
                                    ctx.frontier_count(b);
                           });
        }
        if (registry != nullptr) {
          registry->GetCounter("dispatch.order.density_sorted")
              .Add(sps.size() + lps.size());
        }
      }
      break;
  }
  sps.insert(sps.end(), lps.begin(), lps.end());
  return sps;
}

}  // namespace gts
