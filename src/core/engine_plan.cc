#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/dispatch/page_order.h"
#include "core/engine_internal.h"

namespace gts {

std::vector<PageId> GtsEngine::PlanPass(const std::vector<JobExec*>& running) {
  // Per-job page lists for this pass.
  struct JobPages {
    JobExec* job = nullptr;
    std::vector<PageId> sps;
    std::vector<PageId> lps;
  };
  std::vector<JobPages> plan;
  plan.reserve(running.size());
  const PidSet* pass_frontier = nullptr;
  int traversal_jobs = 0;
  for (JobExec* job : running) {
    JobPages jp;
    jp.job = job;
    if (job->traversal()) {
      ++traversal_jobs;
      pass_frontier = job->frontier.get();
      uint64_t skipped = 0;
      for (PageId pid : job->frontier->ToVector()) {
        // A page whose activated vertices have no out-edges between
        // them can expand nothing: skipping it drops no WA update.
        if (options_.dispatch.skip_edgeless_pages &&
            job->frontier->CountOf(pid) == 0) {
          ++skipped;
          continue;
        }
        if (graph_->kind(pid) == PageKind::kSmall) {
          jp.sps.push_back(pid);
        } else {
          // Record IDs address an LP vertex through its first chunk;
          // the RVT's LP_RANGE says how many continuation pages follow,
          // and a traversal must stream the whole run (Figure 1 /
          // Appendix A).
          const uint32_t more = graph_->rvt().entry(pid).lp_more;
          for (uint32_t k = 0; k <= more; ++k) jp.lps.push_back(pid + k);
        }
      }
      if (skipped > 0) {
        job->metrics.pages_skipped += skipped;
        registry_->GetCounter("dispatch.skipped_pages").Add(skipped);
      }
      if (job->kernel->collect_level_pages()) {
        std::vector<PageId> combined = jp.sps;
        combined.insert(combined.end(), jp.lps.begin(), jp.lps.end());
        job->metrics.level_pages.push_back(std::move(combined));
      }
      for (auto& replica : job->replicas) replica.local_next->Clear();
    } else if (job->is_pass) {
      for (PageId pid : job->pages) {
        (graph_->kind(pid) == PageKind::kSmall ? jp.sps : jp.lps)
            .push_back(pid);
      }
    } else {
      // Full scan: one pass over all SPs, then all LPs (Section 3.2),
      // reordered per dispatch.order.
      jp.sps = graph_->small_page_ids();
      jp.lps = graph_->large_page_ids();
    }
    job->participated = true;
    plan.push_back(std::move(jp));
  }

  // Demand union + weighted-round-robin merge (JobOptions::priority =
  // pages taken per turn): each distinct page enters the merged order
  // once, at the turn of the first job that claims it, and demand_
  // lists every job demanding it in admission order -- once per
  // occurrence, so a page a job lists twice runs that job's kernel
  // twice on the one staged copy.
  for (const JobPages& jp : plan) {
    for (PageId pid : jp.sps) demand_[pid].push_back(jp.job);
    for (PageId pid : jp.lps) demand_[pid].push_back(jp.job);
  }
  if (++merge_epoch_ == 0) {
    std::fill(merge_stamp_.begin(), merge_stamp_.end(), 0);
    merge_epoch_ = 1;
  }
  auto merge_wrr = [this, &plan](bool large) {
    std::vector<PageId> merged;
    std::vector<size_t> cursor(plan.size(), 0);
    for (;;) {
      bool advanced = false;
      for (size_t j = 0; j < plan.size(); ++j) {
        const std::vector<PageId>& list =
            large ? plan[j].lps : plan[j].sps;
        int take = std::max(1, plan[j].job->options.priority);
        while (take-- > 0 && cursor[j] < list.size()) {
          const PageId pid = list[cursor[j]++];
          if (merge_stamp_[pid] != merge_epoch_) {
            merge_stamp_[pid] = merge_epoch_;
            merged.push_back(pid);
          }
          advanced = true;
        }
      }
      if (!advanced) break;
    }
    return merged;
  };
  std::vector<PageId> merged_sps = merge_wrr(/*large=*/false);
  std::vector<PageId> merged_lps = merge_wrr(/*large=*/true);

  // The ordering/admission context for frontier-aware dispatch
  // policies sees the union of every running traversal job's
  // activations (a lone traversal job's frontier as is).
  if (traversal_jobs > 1) {
    if (merged_frontier_ == nullptr) {
      merged_frontier_ = std::make_unique<PidSet>(graph_->num_pages());
      if (CountFrontier()) merged_frontier_->EnableCounting();
    }
    merged_frontier_->Clear();
    for (JobExec* job : running) {
      if (job->traversal()) merged_frontier_->Union(*job->frontier);
    }
    pass_frontier = merged_frontier_.get();
  }

  PageOrderContext ctx;
  if (pass_frontier != nullptr && pass_frontier->counting()) {
    ctx.frontier_count = [pass_frontier](PageId pid) {
      return pass_frontier->CountOf(pid);
    };
  }
  std::vector<PageId> ordered =
      OrderPages(options_.dispatch.order, std::move(merged_sps),
                 std::move(merged_lps), ctx, registry_.get());

  // No read merges across the pass barrier. Then the pass's transfer
  // mode: whole pages, or direct fetches of active adjacency lists.
  io_->BeginPass();
  transfer_->BeginPass(ordered, pass_frontier);
  return ordered;
}

GtsEngine::PageRoute GtsEngine::RoutePage(PageId pid) const {
  PageRoute route;
  if (replicate_) {
    // Strategy-S (Section 4.2): every page to every GPU.
    route.last_gpu = machine_.num_gpus - 1;
    return route;
  }
  // The hybrid extension's share, by a deterministic multiplicative hash
  // of the page id.
  const uint32_t h = static_cast<uint32_t>(pid) * 2654435761u;
  if (static_cast<double>(h >> 8 & 0xFFFFFF) / 16777216.0 <
      options_.cpu_assist_fraction) {
    route.cpu = true;
    return route;  // last_gpu stays below first_gpu: no GPU leg
  }
  // Strategy-P's striping (Section 4.1): page j goes to GPU j mod n.
  route.first_gpu = static_cast<int>(pid) % machine_.num_gpus;
  route.last_gpu = route.first_gpu;
  return route;
}

}  // namespace gts
