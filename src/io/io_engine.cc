#include "io/io_engine.h"

#include <string>
#include <utility>

#include "common/logging.h"

namespace gts {
namespace io {

IoEngine::IoEngine(const PagedGraph* graph, PageStore* store,
                   IoOptions options, RecordFn record,
                   obs::MetricsRegistry* registry)
    : graph_(graph),
      store_(store),
      options_(options),
      record_(std::move(record)) {
  const Status valid = options_.Validate();
  GTS_CHECK(valid.ok()) << valid.ToString();
  for (size_t d = 0; d < store_->num_devices(); ++d) {
    queues_.emplace_back(static_cast<int>(d), store_->device(d).timing(),
                         options_);
  }
  if (registry != nullptr) {
    submitted_metric_ = &registry->GetCounter("io.submitted");
    completed_metric_ = &registry->GetCounter("io.completed");
    merged_metric_ = &registry->GetCounter("io.merged_bursts");
    reorder_metric_ = &registry->GetCounter("io.reorder_wins");
    backpressure_metric_ = &registry->GetCounter("io.backpressure");
    demand_metric_ = &registry->GetCounter("io.demand_fetches");
    eviction_metric_ = &registry->GetCounter("io.prefetch_evictions");
    spill_metric_ = &registry->GetCounter("io.spill_writes");
    rewrite_metric_ = &registry->GetCounter("io.page_rewrites");
    depth_dist_ = &registry->GetDistribution("io.queue_depth");
  }
}

void IoEngine::BindEventLog(analysis::IoEventLog* log) {
  analysis::sync::Lock lock(mu_);
  io_log_ = log;
  for (DeviceQueue& queue : queues_) queue.BindEventLog(log);
}

void IoEngine::BeginPass(const std::vector<PageId>& ordered) {
  analysis::sync::Lock lock(mu_);
  // Leftover queue/parked state can only exist after a failed pass; the
  // recorder was cleared with it, so drop everything and start clean.
  parked_.clear();
  for (DeviceQueue& queue : queues_) queue.ResetPass();
  prefetcher_.BeginPass(ordered, store_->num_devices(),
                        graph_->config().page_size,
                        [this](PageId pid) { return store_->Resident(pid); });
}

void IoEngine::PrimeAll() {
  for (size_t d = 0; d < queues_.size(); ++d) {
    bool slots_exhausted = false;
    const int submitted =
        prefetcher_.Prime(d, &queues_[d], &slots_exhausted);
    if (submitted > 0) {
      stats_.submitted += static_cast<uint64_t>(submitted);
      if (submitted_metric_ != nullptr) {
        submitted_metric_->Add(static_cast<uint64_t>(submitted));
      }
    }
    if (slots_exhausted) {
      ++stats_.backpressure;
      if (backpressure_metric_ != nullptr) backpressure_metric_->Add();
    }
  }
}

Result<IoEngine::Parked> IoEngine::IssueOne(DeviceQueue* queue) {
  const IoIssue issue = queue->IssueNext();

  if (issue.request.write) {
    // A WA spill the scheduler picked ahead of (or between) queued
    // reads. The bytes were written at submit time; here the device
    // pays the simulated cost and the op is recorded against the
    // storage resource, so the write contends with reads in the
    // replayed schedule. Nothing parks: the invalid pid tells the
    // caller no read completed.
    queue->NoteConsumed();
    Parked done;
    done.device = static_cast<size_t>(queue->device_index());
    done.cost = issue.cost;
    if (issue.cost > 0.0 && record_ != nullptr) {
      gpu::TimelineOp wop;
      wop.kind = gpu::OpKind::kStorageWrite;
      wop.resource = {gpu::ResourceId::Type::kStorageDevice,
                      queue->device_index()};
      wop.duration = issue.cost;
      wop.bytes = issue.request.length;
      wop.page = pending_write_page_;
      wop.queue_wait = issue.queue_wait;
      wop.dep0 = pending_write_dep_;
      done.op = record_(wop);
    }
    if (pending_write_page_ == kInvalidPageId) {
      ++stats_.spill_writes;
      if (spill_metric_ != nullptr) spill_metric_->Add();
    } else {
      ++stats_.page_rewrites;
      if (rewrite_metric_ != nullptr) rewrite_metric_->Add();
    }
    return done;
  }

  GTS_RETURN_IF_ERROR(store_->StageFromDevice(issue.request.pid));

  Parked done;
  done.pid = issue.request.pid;
  done.device = static_cast<size_t>(queue->device_index());
  done.cost = issue.cost;
  if (issue.cost > 0.0 && record_ != nullptr) {
    gpu::TimelineOp fop;
    fop.kind = gpu::OpKind::kStorageFetch;
    fop.resource = {gpu::ResourceId::Type::kStorageDevice,
                    queue->device_index()};
    fop.duration = issue.cost;
    fop.bytes = issue.request.length;
    fop.page = issue.request.pid;
    fop.queue_wait = issue.queue_wait;
    fop.merged = issue.merged;
    done.op = record_(fop);
  }

  ++stats_.completed;
  if (completed_metric_ != nullptr) completed_metric_->Add();
  if (depth_dist_ != nullptr) {
    depth_dist_->Record(static_cast<double>(issue.queue_depth_at_issue));
  }
  if (issue.merged) {
    ++stats_.merged_bursts;
    if (merged_metric_ != nullptr) merged_metric_->Add();
  }
  if (issue.reordered) {
    ++stats_.reorder_wins;
    if (reorder_metric_ != nullptr) reorder_metric_->Add();
  }
  return done;
}

Result<IoEngine::Fetched> IoEngine::DemandFetch(PageId pid) {
  GTS_ASSIGN_OR_RETURN(PageStore::FetchResult fetch, store_->Fetch(pid));
  ++stats_.demand_fetches;
  if (demand_metric_ != nullptr) demand_metric_->Add();
  Fetched out;
  out.data = fetch.data;
  out.buffer_hit = fetch.buffer_hit;
  out.device_index = fetch.device_index;
  out.io_cost = fetch.io_cost;
  if (!fetch.buffer_hit && fetch.io_cost > 0.0 && record_ != nullptr) {
    gpu::TimelineOp fop;
    fop.kind = gpu::OpKind::kStorageFetch;
    fop.resource = {gpu::ResourceId::Type::kStorageDevice,
                    static_cast<int>(fetch.device_index)};
    fop.duration = fetch.io_cost;
    fop.bytes = graph_->config().page_size;
    fop.page = pid;
    out.fetch_op = record_(fop);
  }
  return out;
}

Result<gpu::OpIndex> IoEngine::Write(size_t device, uint64_t offset,
                                     const uint8_t* data, uint64_t length,
                                     gpu::OpIndex dep) {
  if (device >= queues_.size()) {
    return Status::InvalidArgument("storage device out of range: " +
                                   std::to_string(device));
  }
  analysis::sync::Lock lock(mu_);
  // Bytes land now -- host-side correctness never waits on the simulated
  // clock -- then the request queues behind whatever reads are pending
  // and the in-device scheduler prices it in its own turn.
  GTS_RETURN_IF_ERROR(store_->WriteDevice(device, offset, data, length));
  return DrainWrite(device, offset, length, dep, kInvalidPageId);
}

Result<gpu::OpIndex> IoEngine::RewritePage(PageId pid, const uint8_t* data,
                                           uint64_t length) {
  if (pid >= graph_->num_pages()) {
    return Status::InvalidArgument("page id out of range: " +
                                   std::to_string(pid));
  }
  analysis::sync::Lock lock(mu_);
  // New image lands now (and any stale MMBuf copy is dropped); the queue
  // then prices the write like any other storage traffic. A prefetch of
  // this page parked before the rewrite re-reads on Acquire -- its MMBuf
  // entry is gone -- so no reader ever sees the old version.
  GTS_RETURN_IF_ERROR(store_->RewritePage(pid, data, length));
  const size_t device = store_->DeviceOfPage(pid);
  const uint64_t offset =
      static_cast<uint64_t>(pid / store_->num_devices()) *
      graph_->config().page_size;
  return DrainWrite(device, offset, length, gpu::kNoOp, pid);
}

Result<gpu::OpIndex> IoEngine::DrainWrite(size_t device, uint64_t offset,
                                          uint64_t length, gpu::OpIndex dep,
                                          PageId page) {
  DeviceQueue& queue = queues_[device];
  queue.SubmitWrite(offset, length);
  pending_write_dep_ = dep;
  pending_write_page_ = page;
  // Drain until our write is serviced; reads issued on the way park for
  // their Acquire exactly as in the demand drain loop. At most one write
  // is ever queued, so the first invalid-pid completion is ours.
  for (;;) {
    auto done = IssueOne(&queue);
    if (!done.ok()) {
      pending_write_dep_ = gpu::kNoOp;
      pending_write_page_ = kInvalidPageId;
      return done.status();
    }
    if (done->pid == kInvalidPageId) {
      pending_write_dep_ = gpu::kNoOp;
      pending_write_page_ = kInvalidPageId;
      return done->op;
    }
    parked_.emplace(done->pid, *done);
  }
}

Result<IoEngine::Fetched> IoEngine::Acquire(PageId pid) {
  analysis::sync::Lock lock(mu_);
  if (pid >= graph_->num_pages()) {
    return Status::InvalidArgument("page id out of range: " +
                                   std::to_string(pid));
  }

  // 1. A prefetch completed ahead of demand: consume the parked result.
  if (auto it = parked_.find(pid); it != parked_.end()) {
    const Parked parked = it->second;
    parked_.erase(it);
    queues_[parked.device].NoteConsumed();
    if (io_log_ != nullptr) {
      io_log_->Append(analysis::IoEvent::Kind::kDeliver, pid);
    }
    const uint8_t* data = store_->TouchResident(pid);
    if (data == nullptr) {
      // Evicted before consumption: the prefetch window outgrew MMBuf.
      // The already-recorded read stands; pay a second, demand read.
      ++stats_.prefetch_evictions;
      if (eviction_metric_ != nullptr) eviction_metric_->Add();
      return DemandFetch(pid);
    }
    PrimeAll();
    Fetched out;
    out.data = data;
    out.device_index = parked.device;
    out.io_cost = parked.cost;
    out.fetch_op = parked.op;
    return out;
  }

  // 2. MMBuf hit: the store's classic hit path (LRU touch + counter).
  if (store_->Resident(pid)) {
    GTS_ASSIGN_OR_RETURN(PageStore::FetchResult hit, store_->Fetch(pid));
    Fetched out;
    out.data = hit.data;
    out.buffer_hit = true;
    return out;
  }

  const size_t d = store_->DeviceOfPage(pid);
  DeviceQueue& queue = queues_[d];

  // 3. Unplanned miss: the page passed the plan-time Resident() filter
  // but was evicted before this Acquire (the filter is a prediction, not
  // a reservation). Still a demand fetch by count, but force-submitted
  // through the device queue rather than fetched synchronously, so the
  // fallback read contends, reorders, and logs like planned traffic
  // instead of bypassing the prefetch pipeline. With an empty FIFO
  // queue the serviced cost is the same full ReadCost the old
  // synchronous path charged.
  if (!queue.Contains(pid) && !prefetcher_.Pending(pid)) {
    const uint64_t page_size = graph_->config().page_size;
    GTS_CHECK_OK(queue.Submit(pid, (pid / store_->num_devices()) * page_size,
                              page_size, /*force=*/true));
    ++stats_.submitted;
    if (submitted_metric_ != nullptr) submitted_metric_->Add();
    ++stats_.demand_fetches;
    if (demand_metric_ != nullptr) demand_metric_->Add();
  }

  PrimeAll();

  // 4. Force pid into the queue. When the consume order strays from the
  // plan, earlier plan entries drain through the queue ahead of it (their
  // completions park); the slot bound never blocks demand.
  while (!queue.Contains(pid)) {
    if (!queue.QueueFull() && !prefetcher_.PlanEmpty(d)) {
      const IoRequest req = prefetcher_.PopFront(d);
      GTS_CHECK_OK(queue.Submit(req.pid, req.offset, req.length,
                                /*force=*/true));
      ++stats_.submitted;
      if (submitted_metric_ != nullptr) submitted_metric_->Add();
    } else {
      GTS_ASSIGN_OR_RETURN(Parked done, IssueOne(&queue));
      parked_.emplace(done.pid, done);
    }
  }

  // Service the queue until pid completes, parking early completions.
  for (;;) {
    GTS_ASSIGN_OR_RETURN(Parked done, IssueOne(&queue));
    if (done.pid != pid) {
      parked_.emplace(done.pid, done);
      continue;
    }
    queue.NoteConsumed();
    if (io_log_ != nullptr) {
      io_log_->Append(analysis::IoEvent::Kind::kDeliver, pid);
    }
    // Just staged, hence most recent and eviction-protected.
    const uint8_t* data = store_->TouchResident(pid);
    GTS_CHECK(data != nullptr);
    Fetched out;
    out.data = data;
    out.device_index = d;
    out.io_cost = done.cost;
    out.fetch_op = done.op;
    return out;
  }
}

}  // namespace io
}  // namespace gts
