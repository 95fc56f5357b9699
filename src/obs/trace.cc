#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "common/logging.h"

namespace gts {
namespace obs {

namespace {

/// CPU co-processing lanes are recorded with stream keys at this offset
/// (see GtsEngine::ProcessPageOnCpu).
constexpr int kCpuLaneStreamBase = 1 << 20;

/// Relative pid of each track group within one run's pid_base.
constexpr int kHostPid = 0;
constexpr int kStoragePid = 1;
constexpr int kGpuPidBase = 2;

std::string_view OpCategory(const gpu::TimelineOp& op) {
  switch (op.resource.type) {
    case gpu::ResourceId::Type::kStorageDevice:
      return "storage";
    case gpu::ResourceId::Type::kCopyEngine:
      return "copy";
    case gpu::ResourceId::Type::kKernelPool:
      return "kernel";
    case gpu::ResourceId::Type::kHostCpuPool:
      return "cpu";
    case gpu::ResourceId::Type::kNone:
      return op.kind == gpu::OpKind::kBarrier ? "sync" : "host";
  }
  return "?";
}

/// Fixed-precision simulated microseconds: deterministic and fine enough
/// (1e-6 us = 1 ps) for the scaled machine model.
std::string FormatUs(SimTime seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", seconds * 1e6);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

struct PendingEvent {
  SimTime ts = 0.0;
  int pid = 0;
  int tid = 0;
  size_t seq = 0;  // tiebreaker: op order within the run
  std::string json;

  bool operator<(const PendingEvent& other) const {
    if (ts != other.ts) return ts < other.ts;
    if (pid != other.pid) return pid < other.pid;
    if (tid != other.tid) return tid < other.tid;
    return seq < other.seq;
  }
};

std::string MetadataEvent(const char* name, int pid, int tid,
                          const std::string& value) {
  std::string out = "{\"name\":\"";
  out += name;
  out += "\",\"ph\":\"M\",\"pid\":" + std::to_string(pid);
  if (tid >= 0) out += ",\"tid\":" + std::to_string(tid);
  out += ",\"args\":{\"name\":\"" + JsonEscape(value) + "\"}}";
  return out;
}

/// Greedy interval packing: assigns each (start-sorted) op the first lane
/// that is free at its start. For ops admitted by a capacity-limited pool
/// the lane count never exceeds the pool capacity.
class LanePacker {
 public:
  int Assign(SimTime start, SimTime end) {
    for (size_t lane = 0; lane < busy_until_.size(); ++lane) {
      if (busy_until_[lane] <= start) {
        busy_until_[lane] = end;
        return static_cast<int>(lane);
      }
    }
    busy_until_.push_back(end);
    return static_cast<int>(busy_until_.size()) - 1;
  }

 private:
  std::vector<SimTime> busy_until_;
};

}  // namespace

char TraceEventPhase(gpu::OpKind kind) {
  return kind == gpu::OpKind::kBarrier ? 'i' : 'X';
}

void TraceExporter::AddRun(const gpu::ScheduleResult& schedule,
                           const TraceRunOptions& options) {
  const std::string prefix =
      options.label.empty() ? std::string() : options.label + " ";
  std::map<int, std::string> process_names;
  std::map<std::pair<int, int>, std::string> thread_names;

  auto track_name = [&](int pid, int tid, const std::string& process,
                        const std::string& thread) {
    process_names.emplace(pid, prefix + process);
    thread_names.emplace(std::make_pair(pid, tid), thread);
  };

  // Kernel-pool ops pack into concurrency lanes per pool, in start order
  // (ties broken by op order so the packing is deterministic).
  std::vector<size_t> pool_ops;
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    if (schedule.ops[i].resource.type ==
        gpu::ResourceId::Type::kKernelPool) {
      pool_ops.push_back(i);
    }
  }
  std::stable_sort(pool_ops.begin(), pool_ops.end(),
                   [&](size_t a, size_t b) {
                     const auto& oa = schedule.ops[a];
                     const auto& ob = schedule.ops[b];
                     if (oa.start != ob.start) return oa.start < ob.start;
                     if (oa.end != ob.end) return oa.end < ob.end;
                     return a < b;
                   });
  std::map<int, LanePacker> packers;          // GPU id -> packer
  std::map<size_t, int> kernel_lane;          // op index -> lane
  for (size_t i : pool_ops) {
    const gpu::TimelineOp& op = schedule.ops[i];
    kernel_lane[i] =
        packers[op.resource.index].Assign(op.start, op.end);
  }

  std::vector<PendingEvent> pending;
  pending.reserve(schedule.ops.size());
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    const gpu::TimelineOp& op = schedule.ops[i];
    int pid = options.pid_base + kHostPid;
    int tid = 0;
    switch (op.resource.type) {
      case gpu::ResourceId::Type::kStorageDevice:
        pid = options.pid_base + kStoragePid;
        tid = op.resource.index;
        track_name(pid, tid, "storage",
                   "device " + std::to_string(tid));
        break;
      case gpu::ResourceId::Type::kCopyEngine:
        pid = options.pid_base + kGpuPidBase + op.resource.index;
        tid = 0;
        track_name(pid, tid, "GPU " + std::to_string(op.resource.index),
                   "copy engine");
        break;
      case gpu::ResourceId::Type::kKernelPool: {
        pid = options.pid_base + kGpuPidBase + op.resource.index;
        tid = 1 + kernel_lane[i];
        track_name(pid, tid, "GPU " + std::to_string(op.resource.index),
                   "kernel lane " + std::to_string(tid - 1));
        break;
      }
      case gpu::ResourceId::Type::kHostCpuPool: {
        // CPU lanes are serialized per stream key by the simulator.
        const int lane =
            op.stream_key >= kCpuLaneStreamBase
                ? op.stream_key - kCpuLaneStreamBase
                : 0;
        pid = options.pid_base + kHostPid;
        tid = 1 + lane;
        track_name(pid, tid, "host", "cpu lane " + std::to_string(lane));
        break;
      }
      case gpu::ResourceId::Type::kNone:
        pid = options.pid_base + kHostPid;
        tid = 0;
        track_name(pid, tid, "host", "host thread");
        break;
    }

    const char phase = TraceEventPhase(op.kind);
    const SimTime ts = op.start + options.time_offset;
    std::string json = "{\"name\":\"";
    json += std::string(gpu::OpKindName(op.kind));
    json += "\",\"cat\":\"";
    json += std::string(OpCategory(op));
    json += "\",\"ph\":\"";
    json += phase;
    json += "\",\"ts\":" + FormatUs(ts);
    if (phase == 'X') {
      json += ",\"dur\":" + FormatUs(op.end - op.start);
    } else {
      json += ",\"s\":\"p\"";  // instant scope: process
    }
    json += ",\"pid\":" + std::to_string(pid);
    json += ",\"tid\":" + std::to_string(tid);
    std::string args;
    if (op.page != kInvalidPageId) {
      args += "\"page\":" + std::to_string(op.page);
    }
    if (op.bytes > 0) {
      if (!args.empty()) args += ",";
      args += "\"bytes\":" + std::to_string(op.bytes);
    }
    if (op.stream_key >= 0 && op.stream_key < kCpuLaneStreamBase) {
      if (!args.empty()) args += ",";
      args += "\"stream\":" + std::to_string(op.stream_key);
    }
    if (op.merged) {
      if (!args.empty()) args += ",";
      args += "\"merged\":1";
    }
    if (op.job >= 0) {
      // JobScheduler batch epochs tag per-job ops with their job lane;
      // single-job runs leave every op untagged, so their traces are
      // byte-identical to the pre-scheduler engine's.
      if (!args.empty()) args += ",";
      args += "\"job\":" + std::to_string(op.job);
    }
    if (!args.empty()) json += ",\"args\":{" + args + "}";
    json += "}";

    pending.push_back(PendingEvent{ts, pid, tid, i, std::move(json)});
  }

  std::sort(pending.begin(), pending.end());

  for (const auto& [pid, name] : process_names) {
    metadata_.push_back(MetadataEvent("process_name", pid, -1, name));
    // Keep run groups in pid order in the Perfetto UI.
    metadata_.push_back(
        "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":" +
        std::to_string(pid) + ",\"args\":{\"sort_index\":" +
        std::to_string(pid) + "}}");
  }
  for (const auto& [key, name] : thread_names) {
    metadata_.push_back(
        MetadataEvent("thread_name", key.first, key.second, name));
  }
  for (PendingEvent& event : pending) {
    events_.push_back(std::move(event.json));
  }
}

void TraceExporter::AddRunMetadata(const std::string& key,
                                   const std::string& value, int pid_base) {
  metadata_.push_back(
      "{\"name\":\"" + JsonEscape(key) + "\",\"ph\":\"M\",\"pid\":" +
      std::to_string(pid_base + kHostPid) + ",\"args\":{\"value\":\"" +
      JsonEscape(value) + "\"}}");
}

std::string TraceExporter::ToJson() const {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto* list : {&metadata_, &events_}) {
    for (const std::string& event : *list) {
      if (!first) out += ",\n";
      first = false;
      out += event;
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

Status TraceExporter::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path);
  const std::string json = ToJson();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.flush();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

std::string ChromeTraceJson(const gpu::ScheduleResult& schedule,
                            const std::string& label) {
  TraceExporter exporter;
  TraceRunOptions options;
  options.label = label;
  exporter.AddRun(schedule, options);
  return exporter.ToJson();
}

}  // namespace obs
}  // namespace gts
