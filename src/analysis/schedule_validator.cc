#include "analysis/schedule_validator.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

namespace gts {
namespace analysis {

void ScheduleValidator::AddViolation(RaceReport* report, const char* rule,
                                     gpu::OpIndex op,
                                     std::string detail) const {
  ++report->violations_detected;
  if (report->violations.size() < options_.max_reported) {
    report->violations.push_back(
        ScheduleViolation{rule, std::move(detail), op});
  }
}

void ScheduleValidator::Check(const gpu::ScheduleResult& schedule,
                              RaceReport* report) const {
  const double eps = options_.epsilon;
  const auto& ops = schedule.ops;
  report->validator_ran = true;

  struct Interval {
    double start;
    double end;
    gpu::OpIndex op;
  };
  std::map<std::pair<int, int>, std::vector<Interval>> serial;  // (type, idx)
  std::unordered_map<int, std::pair<double, gpu::OpIndex>> stream_tail;
  // Latest H2D end per (stream_key, page) for R4.
  std::map<std::pair<int, PageId>, std::pair<double, gpu::OpIndex>> h2d_end;
  double max_end = 0.0;
  double barrier_end = 0.0;
  gpu::OpIndex barrier_op = gpu::kNoOp;

  for (gpu::OpIndex i = 0; i < ops.size(); ++i) {
    const gpu::TimelineOp& op = ops[i];

    // R8: malformed op.
    ++report->schedule_checks;
    if (op.duration < 0.0 || op.queue_wait < 0.0 ||
        op.end < op.start - eps) {
      std::ostringstream os;
      os << "duration " << op.duration << ", queue_wait " << op.queue_wait
         << ", interval [" << op.start << ", " << op.end << "]";
      AddViolation(report, "malformed-op", i, os.str());
    }

    if (op.kind == gpu::OpKind::kBarrier) {
      // R5: the barrier dominates everything recorded before it.
      ++report->schedule_checks;
      if (op.start < max_end - eps) {
        std::ostringstream os;
        os << "barrier starts at " << op.start << " before an earlier op ends ("
           << max_end << ")";
        AddViolation(report, "barrier", i, os.str());
      }
      barrier_end = std::max(barrier_end, op.end);
      barrier_op = i;
      max_end = std::max(max_end, op.end);
      continue;
    }

    // R5 (continued): nothing recorded after a barrier starts before it.
    if (barrier_op != gpu::kNoOp) {
      ++report->schedule_checks;
      if (op.start < barrier_end - eps) {
        std::ostringstream os;
        os << "op starts at " << op.start << " before barrier #" << barrier_op
           << " ends (" << barrier_end << ")";
        AddViolation(report, "barrier", i, os.str());
      }
    }

    // R1: dependency order ("an event wait may not precede its record").
    for (gpu::OpIndex dep : {op.dep0, op.dep1}) {
      if (dep == gpu::kNoOp) continue;
      ++report->schedule_checks;
      if (dep >= i) {
        AddViolation(report, "dep-order", i,
                     "dependency #" + std::to_string(dep) +
                         " does not precede the op");
        continue;
      }
      if (op.start < ops[dep].end - eps) {
        std::ostringstream os;
        os << "op starts at " << op.start << " before dependency #" << dep
           << " ends (" << ops[dep].end << ")";
        AddViolation(report, "dep-order", i, os.str());
      }
    }

    // R3: program order within one stream.
    if (op.stream_key >= 0) {
      auto it = stream_tail.find(op.stream_key);
      if (it != stream_tail.end()) {
        ++report->schedule_checks;
        if (op.start < it->second.first - eps) {
          std::ostringstream os;
          os << "op on stream " << op.stream_key << " starts at " << op.start
             << " before previous op #" << it->second.second << " ends ("
             << it->second.first << ")";
          AddViolation(report, "stream-order", i, os.str());
        }
      }
      stream_tail[op.stream_key] = {op.end, i};
    }

    // R4: a kernel reads its page only after the page's H2D on the same
    // stream completed (cache-hit kernels have no matching H2D). Direct
    // fine-grained fetches gate their kernels exactly like whole-page
    // streams -- and must sit on a copy engine.
    if ((op.kind == gpu::OpKind::kH2DStream ||
         op.kind == gpu::OpKind::kH2DDirect) &&
        op.stream_key >= 0 && op.page != kInvalidPageId) {
      h2d_end[{op.stream_key, op.page}] = {op.end, i};
    }
    if (op.kind == gpu::OpKind::kH2DDirect) {
      ++report->schedule_checks;
      if (op.resource.type != gpu::ResourceId::Type::kCopyEngine) {
        AddViolation(report, "malformed-op", i,
                     "h2d-direct op priced off the copy engine");
      }
    }
    if (op.kind == gpu::OpKind::kKernel && op.stream_key >= 0 &&
        op.page != kInvalidPageId) {
      auto it = h2d_end.find({op.stream_key, op.page});
      if (it != h2d_end.end()) {
        ++report->schedule_checks;
        if (op.start < it->second.first - eps) {
          std::ostringstream os;
          os << "kernel for pid " << op.page << " starts at " << op.start
             << " before its transfer #" << it->second.second << " ends ("
             << it->second.first << ")";
          AddViolation(report, "kernel-after-h2d", i, os.str());
        }
      }
    }

    // R2: collect serial-resource intervals.
    if (op.resource.type == gpu::ResourceId::Type::kStorageDevice ||
        op.resource.type == gpu::ResourceId::Type::kCopyEngine) {
      serial[{static_cast<int>(op.resource.type), op.resource.index}]
          .push_back(Interval{op.start, op.end, i});
    }

    max_end = std::max(max_end, op.end);
  }

  // R2: no overlap on any serial resource. Ties on start order by end,
  // so a zero-length op (an empty WA delta, say) sorts before the op the
  // simulator started at the same instant instead of "overlapping" it.
  for (auto& [key, intervals] : serial) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                return a.start != b.start ? a.start < b.start : a.end < b.end;
              });
    const char* what =
        key.first == static_cast<int>(gpu::ResourceId::Type::kCopyEngine)
            ? "copy engine"
            : "storage device";
    for (size_t k = 1; k < intervals.size(); ++k) {
      ++report->schedule_checks;
      if (intervals[k].start < intervals[k - 1].end - eps) {
        std::ostringstream os;
        os << what << " " << key.second << ": op #" << intervals[k].op
           << " [" << intervals[k].start << ", " << intervals[k].end
           << ") overlaps op #" << intervals[k - 1].op << " ["
           << intervals[k - 1].start << ", " << intervals[k - 1].end << ")";
        AddViolation(report, "serial-overlap", intervals[k].op, os.str());
      }
    }
  }
}

void ScheduleValidator::CheckPinEvents(const std::vector<PinEvent>& events,
                                       RaceReport* report) const {
  report->validator_ran = true;
  std::unordered_map<PageId, int64_t> active;
  // I1: pids whose cached copy was invalidated (gts::ingest publish) and
  // not yet re-admitted -- a pin in that window reads a stale page image.
  std::unordered_map<PageId, uint64_t> invalidated_at;
  for (const PinEvent& e : events) {
    ++report->schedule_checks;
    switch (e.kind) {
      case PinEvent::Kind::kPinned: {
        auto inv = invalidated_at.find(e.pid);
        if (inv != invalidated_at.end()) {
          AddViolation(report, "pin-after-invalidate", gpu::kNoOp,
                       "pid " + std::to_string(e.pid) +
                           " pinned after invalidation (event seq " +
                           std::to_string(inv->second) +
                           ") without a fresh insert (event seq " +
                           std::to_string(e.seq) + ")");
        }
        ++active[e.pid];
        break;
      }
      case PinEvent::Kind::kReleased:
        if (--active[e.pid] < 0) {
          AddViolation(report, "pin-lifetime", gpu::kNoOp,
                       "pid " + std::to_string(e.pid) +
                           " released without a matching pin (event seq " +
                           std::to_string(e.seq) + ")");
          active[e.pid] = 0;
        }
        break;
      case PinEvent::Kind::kEvicted:
        if (active[e.pid] > 0) {
          AddViolation(report, "pin-lifetime", gpu::kNoOp,
                       "pid " + std::to_string(e.pid) + " evicted with " +
                           std::to_string(active[e.pid]) +
                           " pin(s) outstanding (event seq " +
                           std::to_string(e.seq) + ")");
        }
        break;
      case PinEvent::Kind::kInserted:
        // A fresh image is admitted: pins are legal again (I1).
        invalidated_at.erase(e.pid);
        break;
      case PinEvent::Kind::kInvalidated:
        invalidated_at[e.pid] = e.seq;
        break;
    }
  }
}

void ScheduleValidator::CheckIoEvents(const std::vector<IoEvent>& events,
                                      RaceReport* report) const {
  report->validator_ran = true;
  enum class State : uint8_t { kIdle, kSubmitted, kIssued };
  std::unordered_map<PageId, State> state;
  for (const IoEvent& e : events) {
    ++report->schedule_checks;
    State& s = state[e.pid];
    switch (e.kind) {
      case IoEvent::Kind::kSubmit:
        if (s != State::kIdle) {
          AddViolation(report, "io-order", gpu::kNoOp,
                       "pid " + std::to_string(e.pid) +
                           " re-submitted while a request is outstanding "
                           "(event seq " +
                           std::to_string(e.seq) + ")");
        }
        s = State::kSubmitted;
        break;
      case IoEvent::Kind::kIssue:
        if (s != State::kSubmitted) {
          AddViolation(report, "io-order", gpu::kNoOp,
                       "pid " + std::to_string(e.pid) +
                           " issued without a pending submit (event seq " +
                           std::to_string(e.seq) + ")");
        }
        s = State::kIssued;
        break;
      case IoEvent::Kind::kDeliver:
        if (s != State::kIssued) {
          AddViolation(report, "io-order", gpu::kNoOp,
                       "pid " + std::to_string(e.pid) +
                           " completion delivered before device-queue issue "
                           "(event seq " +
                           std::to_string(e.seq) + ")");
        }
        s = State::kIdle;
        break;
    }
  }
  // Requests still in flight at run end (failed pass cleanup) are not
  // violations: only *ordering* is checked.
}

void ScheduleValidator::CheckDispatchEvents(
    const std::vector<DispatchEvent>& events, RaceReport* report) const {
  report->validator_ran = true;
  // Per work-item id: 0 = never enqueued, 1 = enqueued, 2 = claimed.
  std::unordered_map<uint64_t, uint8_t> state;
  for (const DispatchEvent& e : events) {
    ++report->schedule_checks;
    uint8_t& s = state[e.item];
    switch (e.kind) {
      case DispatchEvent::Kind::kEnqueued:
        if (s != 0) {
          AddViolation(report, "claim-unique", gpu::kNoOp,
                       "work item " + std::to_string(e.item) + " (pid " +
                           std::to_string(e.pid) +
                           ") enqueued twice (event seq " +
                           std::to_string(e.seq) + ")");
        }
        s = 1;
        break;
      case DispatchEvent::Kind::kClaimed:
        if (s == 0) {
          AddViolation(report, "claim-unique", gpu::kNoOp,
                       "work item " + std::to_string(e.item) + " (pid " +
                           std::to_string(e.pid) +
                           ") claimed without a prior enqueue (event seq " +
                           std::to_string(e.seq) + ")");
        } else if (s == 2) {
          AddViolation(report, "claim-unique", gpu::kNoOp,
                       "work item " + std::to_string(e.item) + " (pid " +
                           std::to_string(e.pid) +
                           ") claimed twice (stream key " +
                           std::to_string(e.claimer) + ", event seq " +
                           std::to_string(e.seq) + ")");
        }
        s = 2;
        break;
    }
  }
  // Items enqueued but never claimed at run end (failed pass teardown)
  // are not violations: a worker crash must not cascade into R9 noise.
}

void ScheduleValidator::CheckJobIsolation(const gpu::ScheduleResult& schedule,
                                          RaceReport* report) const {
  const auto& ops = schedule.ops;
  report->validator_ran = true;
  for (gpu::OpIndex i = 0; i < ops.size(); ++i) {
    const gpu::TimelineOp& op = ops[i];
    if (op.job < 0) continue;
    for (gpu::OpIndex dep : {op.dep0, op.dep1}) {
      if (dep == gpu::kNoOp || dep >= ops.size()) continue;
      ++report->schedule_checks;
      if (ops[dep].job >= 0 && ops[dep].job != op.job) {
        AddViolation(report, "job-isolation", i,
                     "op of job " + std::to_string(op.job) +
                         " depends on op #" + std::to_string(dep) +
                         " of job " + std::to_string(ops[dep].job));
      }
    }
  }
}

}  // namespace analysis
}  // namespace gts
