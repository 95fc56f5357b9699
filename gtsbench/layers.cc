#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "analysis/schedule_validator.h"
#include "graph/datasets.h"

namespace gtsbench {
namespace {

using Clock = std::chrono::steady_clock;
using gts::gpu::OpKind;
using gts::gpu::ResourceId;

constexpr double kPaperScale = static_cast<double>(gts::kReproScale);

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Sum of every registry counter named `<prefix>*<suffix>`.
double SumCounters(const gts::obs::MetricsSnapshot& registry,
                   std::string_view prefix, std::string_view suffix) {
  double sum = 0.0;
  for (const auto& [name, value] : registry) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += static_cast<double>(value.count);
    }
  }
  return sum;
}

/// The occupancy class of an op's resource, in priority order: 0 kernel
/// (a GPU's or the host CPU's pool), 1 copy engine, 2 storage device; -1
/// for none.
int OccupancyClass(ResourceId::Type type) {
  switch (type) {
    case ResourceId::Type::kKernelPool:
    case ResourceId::Type::kHostCpuPool:
      return 0;
    case ResourceId::Type::kCopyEngine:
      return 1;
    case ResourceId::Type::kStorageDevice:
      return 2;
    case ResourceId::Type::kNone:
      break;
  }
  return -1;
}

Occupancy SplitMakespan(const gts::gpu::ScheduleResult& schedule) {
  // Sweep over op boundaries; each elementary segment goes to the
  // highest-priority class with an op in flight.
  struct Edge {
    double time;
    int cls;
    int delta;
  };
  std::vector<Edge> edges;
  for (const gts::gpu::TimelineOp& op : schedule.ops) {
    const int cls = OccupancyClass(op.resource.type);
    if (cls < 0 || op.end <= op.start) continue;
    edges.push_back({op.start, cls, +1});
    edges.push_back({op.end, cls, -1});
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.time < b.time; });

  Occupancy split;
  int active[3] = {0, 0, 0};
  auto charge = [&](double length) {
    if (active[0] > 0) {
      split.kernel += length;
    } else if (active[1] > 0) {
      split.copy += length;
    } else if (active[2] > 0) {
      split.storage += length;
    } else {
      split.idle += length;
    }
  };
  double now = 0.0;
  for (size_t i = 0; i < edges.size();) {
    const double t = edges[i].time;
    charge(t - now);
    now = t;
    for (; i < edges.size() && edges[i].time == t; ++i) {
      active[edges[i].cls] += edges[i].delta;
    }
  }
  charge(schedule.makespan - now);
  return split;
}

/// Length of the union of the intervals of every op whose class is at most
/// `max_cls`, by merging the sorted intervals rather than sweeping.
double CoveredLength(const gts::gpu::ScheduleResult& schedule, int max_cls) {
  std::vector<std::pair<double, double>> spans;
  for (const gts::gpu::TimelineOp& op : schedule.ops) {
    const int cls = OccupancyClass(op.resource.type);
    if (cls >= 0 && cls <= max_cls) spans.emplace_back(op.start, op.end);
  }
  std::sort(spans.begin(), spans.end());
  double covered = 0.0;
  for (size_t i = 0; i < spans.size();) {
    const double from = spans[i].first;
    double to = spans[i].second;
    for (++i; i < spans.size() && spans[i].first <= to; ++i) {
      to = std::max(to, spans[i].second);
    }
    covered += to - from;
  }
  return covered;
}

/// Checks a split against figures taken without the sweep: every op lies
/// within [0, makespan]; no share is negative; the kernel part, kernel plus
/// copy, and kernel plus copy plus storage each equal the union of those
/// classes' op intervals; the shares sum to 1. Returns the first problem,
/// or an empty string.
std::string CheckSplit(const gts::gpu::ScheduleResult& schedule,
                       const Occupancy& split) {
  const double makespan = schedule.makespan;
  for (const gts::gpu::TimelineOp& op : schedule.ops) {
    if (op.start < 0.0 || op.end < op.start || op.end > makespan) {
      return std::string(gts::gpu::OpKindName(op.kind)) + " op runs [" +
             std::to_string(op.start) + ", " + std::to_string(op.end) +
             "] outside the makespan " + std::to_string(makespan);
    }
  }
  if (split.kernel < 0.0 || split.copy < 0.0 || split.storage < 0.0 ||
      split.idle < 0.0) {
    return "an occupancy share is negative";
  }
  const double tolerance = 1e-9 * makespan;
  const char* const parts[] = {"kernel", "kernel+copy",
                               "kernel+copy+storage"};
  const double prefix[] = {split.kernel, split.kernel + split.copy,
                           split.kernel + split.copy + split.storage};
  for (int cls = 0; cls < 3; ++cls) {
    const double covered = CoveredLength(schedule, cls);
    if (std::abs(prefix[cls] - covered) > tolerance) {
      return std::string("occupancy ") + parts[cls] + " part " +
             std::to_string(prefix[cls]) + " differs from its ops' union " +
             std::to_string(covered);
    }
  }
  if (makespan > 0.0 && std::abs(split.total() / makespan - 1.0) > 1e-9) {
    return "occupancy shares sum to " +
           std::to_string(split.total() / makespan);
  }
  return "";
}

}  // namespace

void ScopeTotals::OnScope(const char* name, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  seconds_[name] += seconds;
}

double ScopeTotals::Seconds(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = seconds_.find(name);
  return it == seconds_.end() ? 0.0 : it->second;
}

Occupancy& Occupancy::operator+=(const Occupancy& other) {
  kernel += other.kernel;
  copy += other.copy;
  storage += other.storage;
  idle += other.idle;
  return *this;
}

std::string LayerTotals::Add(const Unit& unit) {
  queries_ += unit.queries.size();
  host_s_ += unit.host_s;
  submits_ += static_cast<uint64_t>(unit.submits);
  submit_s_ += unit.submit_s;
  appends_ += static_cast<uint64_t>(unit.appends);
  append_s_ += unit.append_s;

  for (const gts::RunMetrics& m : unit.metrics) {
    sums_.pages_streamed += m.pages_streamed;
    sums_.transfer_bytes += m.transfer_bytes;
    sums_.shared_page_hits += m.shared_page_hits;
    sums_.sp_kernel_calls += m.sp_kernel_calls;
    sums_.lp_kernel_calls += m.lp_kernel_calls;
    sums_.levels += m.levels;
    sums_.pages_skipped += m.pages_skipped;
    sums_.work += m.work;
    sums_.ingest_updates_applied += m.ingest_updates_applied;
    sums_.ingest_deltas_flushed += m.ingest_deltas_flushed;
    sums_.ingest_compactions += m.ingest_compactions;
    sums_.ingest_overlay_hits += m.ingest_overlay_hits;
  }
  // The jobs of a batch epoch share its schedule and validator report:
  // count those once per unit.
  if (!unit.metrics.empty()) {
    const gts::RunMetrics& m = unit.metrics.front();
    sums_.storage_busy += m.storage_busy;
    sums_.transfer_busy += m.transfer_busy;
    sums_.kernel_busy += m.kernel_busy;
    sums_.analysis.violations_detected += m.analysis.violations_detected;
  }

  Occupancy unit_split;
  double unit_makespan = 0.0, host_cpu_busy = 0.0;
  for (const gts::gpu::ScheduleResult& timeline : unit.timelines) {
    ops_ += timeline.ops.size();
    for (const gts::gpu::TimelineOp& op : timeline.ops) {
      if (op.kind == OpKind::kStorageFetch) queue_wait_ += op.queue_wait;
      if (op.kind == OpKind::kStorageWrite) write_time_ += op.duration;
    }

    auto start = Clock::now();
    const gts::gpu::ScheduleResult replay =
        gts::gpu::ScheduleSimulator(model_).Run(timeline.ops);
    simulate_s_ += SecondsSince(start);
    if (replay.makespan != timeline.makespan) {
      return "replayed timeline makespan " + std::to_string(replay.makespan) +
             " differs from the kept " + std::to_string(timeline.makespan);
    }

    start = Clock::now();
    gts::analysis::RaceReport report;
    gts::analysis::ScheduleValidator().Check(timeline, &report);
    validate_s_ += SecondsSince(start);

    const Occupancy split = SplitMakespan(timeline);
    const std::string problem = CheckSplit(timeline, split);
    if (!problem.empty()) return problem;
    unit_split += split;
    unit_makespan += timeline.makespan;
    host_cpu_busy += timeline.BusySeconds(ResourceId::Type::kHostCpuPool);
  }
  // No exposed part can exceed the busy time the engine returned for its
  // resources (summed op durations; a batch's jobs all carry the epoch's).
  double kernel_busy = 0.0, transfer_busy = 0.0, storage_busy = 0.0;
  for (const gts::RunMetrics& m : unit.metrics) {
    kernel_busy = std::max(kernel_busy, m.kernel_busy);
    transfer_busy = std::max(transfer_busy, m.transfer_busy);
    storage_busy = std::max(storage_busy, m.storage_busy);
  }
  const double tolerance = 1e-9 * unit_makespan;
  if (unit_split.kernel > kernel_busy + host_cpu_busy + tolerance ||
      unit_split.copy > transfer_busy + tolerance ||
      unit_split.storage > storage_busy + tolerance) {
    return "an occupancy part of a query exceeds its resource's busy time";
  }
  occupancy_ += unit_split;
  return "";
}

std::vector<Metric> LayerTotals::Metrics(const Context& context) const {
  const double q = static_cast<double>(std::max<uint64_t>(queries_, 1));
  const auto per_query = [q](double total) { return total / q; };
  const auto& reg = context.registry;
  const auto counter = [&reg](const char* name) {
    const auto it = reg.find(name);
    return it == reg.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const auto scope = [&context](const char* name) {
    return context.scopes == nullptr ? 0.0 : context.scopes->Seconds(name);
  };
  const auto setup_median = [&context](double SetupTimes::*stage) {
    std::vector<double> values;
    for (const SetupTimes& t : context.setups) values.push_back(t.*stage);
    return Percentile(std::move(values), 50);
  };
  const double makespan = occupancy_.total();
  const double buffer_hits = counter("store.buffer_hits");
  const double device_reads = counter("store.device_reads");
  const gts::WorkStats& work = sums_.work;
  const int tail = TailPercentile(context.untraced_query_host_s.size());

  return {
      {"graph.csr_build_s", "s", setup_median(&SetupTimes::csr), ""},
      {"storage.page_build_s", "s", setup_median(&SetupTimes::pages), ""},
      {"storage.store_init_s", "s", setup_median(&SetupTimes::store), ""},
      {"storage.device_reads", "count", per_query(device_reads), ""},
      {"storage.mmbuf_hit_ratio", "ratio",
       Ratio(buffer_hits, buffer_hits + device_reads), ""},
      {"storage.busy_paper_s", "paper-s",
       per_query(sums_.storage_busy * kPaperScale), ""},
      {"storage.exposed_share", "ratio", Ratio(occupancy_.storage, makespan),
       ""},
      {"io.queue_wait_paper_s", "paper-s",
       per_query(queue_wait_ * kPaperScale), ""},
      {"io.demand_ratio", "ratio",
       Ratio(counter("io.demand_fetches"), counter("io.submitted")), ""},
      {"io.merged_ratio", "ratio",
       Ratio(counter("io.merged_bursts"), counter("io.completed")), ""},
      {"io.prefetch_evictions", "count",
       per_query(counter("io.prefetch_evictions")), ""},
      {"io.backpressure", "count", per_query(counter("io.backpressure")), ""},
      {"io.write_paper_s", "paper-s", per_query(write_time_ * kPaperScale),
       ""},
      {"transfer.pages", "count",
       per_query(static_cast<double>(sums_.pages_streamed)), ""},
      {"transfer.bytes", "B",
       per_query(static_cast<double>(sums_.transfer_bytes)), ""},
      {"transfer.busy_paper_s", "paper-s",
       per_query(sums_.transfer_busy * kPaperScale), ""},
      {"transfer.exposed_share", "ratio", Ratio(occupancy_.copy, makespan),
       ""},
      {"core.cache_hit_ratio", "ratio",
       Ratio(SumCounters(reg, "cache.gpu", ".hits"),
             SumCounters(reg, "cache.gpu", ".lookups")),
       ""},
      {"core.cache_backpressure", "count",
       per_query(SumCounters(reg, "cache.gpu", ".backpressure")), ""},
      {"core.levels", "count", per_query(static_cast<double>(sums_.levels)),
       ""},
      {"core.pages_skipped", "count",
       per_query(static_cast<double>(sums_.pages_skipped)), ""},
      {"core.engine_init_s", "s", setup_median(&SetupTimes::engine), ""},
      {"core.run_host_s", "s",
       per_query(scope("engine.run") + scope("engine.run_pass") +
                 scope("engine.run_job_batch")),
       ""},
      {"core.process_pages_host_s", "s",
       per_query(scope("engine.process_pages")), ""},
      {"core.finalize_host_s", "s", per_query(scope("engine.finalize_run")),
       ""},
      {"core.job.submit_s", "s",
       Ratio(submit_s_, static_cast<double>(submits_)), "per Submit call"},
      {"core.job.host_s_tail", "s",
       Percentile(context.untraced_query_host_s, tail),
       "p" + std::to_string(tail) + " of " +
           std::to_string(context.untraced_query_host_s.size()) +
           " untraced queries"},
      {"core.job.shared_hit_ratio", "ratio",
       Ratio(static_cast<double>(sums_.shared_page_hits),
             static_cast<double>(sums_.shared_page_hits +
                                 sums_.pages_streamed)),
       ""},
      {"core.job.deferred", "count", per_query(counter("jobs.deferred")), ""},
      {"gpu.kernel_busy_paper_s", "paper-s",
       per_query(sums_.kernel_busy * kPaperScale), ""},
      {"gpu.kernel_share", "ratio", Ratio(occupancy_.kernel, makespan), ""},
      {"gpu.idle_share", "ratio", Ratio(occupancy_.idle, makespan), ""},
      {"gpu.ops", "count", per_query(static_cast<double>(ops_)), ""},
      {"gpu.simulate_s", "s", per_query(simulate_s_), ""},
      {"algorithms.kernel_calls", "count",
       per_query(static_cast<double>(sums_.sp_kernel_calls +
                                     sums_.lp_kernel_calls)),
       ""},
      {"algorithms.edges_processed", "count",
       per_query(static_cast<double>(work.edges_processed)), ""},
      {"algorithms.mem_transactions", "count",
       per_query(static_cast<double>(work.mem_transactions)), ""},
      {"algorithms.wa_updates", "count",
       per_query(static_cast<double>(work.wa_updates)), ""},
      {"analysis.validate_s", "s", per_query(validate_s_), ""},
      {"analysis.violations", "count",
       per_query(static_cast<double>(sums_.analysis.violations_detected)), ""},
      {"ingest.append_s", "s",
       Ratio(append_s_, static_cast<double>(appends_)), "per batch"},
      {"ingest.updates_applied", "count",
       per_query(static_cast<double>(sums_.ingest_updates_applied)), ""},
      {"ingest.updates_rejected", "count",
       per_query(static_cast<double>(context.updates_rejected)), ""},
      {"ingest.deltas_flushed", "count",
       per_query(static_cast<double>(sums_.ingest_deltas_flushed)), ""},
      {"ingest.compactions", "count",
       per_query(static_cast<double>(sums_.ingest_compactions)), ""},
      {"ingest.overlay_hits", "count",
       per_query(static_cast<double>(sums_.ingest_overlay_hits)), ""},
      {"obs.trace_overhead_ratio", "ratio",
       Ratio(host_s_, context.untraced_host_s) - 1.0,
       "traced over untraced host seconds, minus 1"},
  };
}

double Percentile(std::vector<double> values, int p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t rank = std::clamp<size_t>(
      (static_cast<size_t>(p) * n + 99) / 100, 1, n);
  return values[rank - 1];
}

int TailPercentile(size_t samples) {
  if (samples <= 10) return 50;
  return static_cast<int>(100 * (samples - 10) / samples);
}

}  // namespace gtsbench
