#include "analysis/race_detector.h"

#include <utility>

#include "common/logging.h"

namespace gts {
namespace analysis {

namespace {

// Lane-registry keys: tag in the top bits, identity below.
constexpr uint64_t kHostKey = 1;
uint64_t StreamLaneKey(int gpu, int stream) {
  return (uint64_t{2} << 40) | (static_cast<uint64_t>(gpu) << 20) |
         static_cast<uint64_t>(stream);
}
uint64_t CopyLaneKey(int gpu) {
  return (uint64_t{3} << 40) | static_cast<uint64_t>(gpu);
}
uint64_t StorageLaneKey(int device) {
  return (uint64_t{4} << 40) | static_cast<uint64_t>(device);
}
uint64_t CpuLaneKey(int lane) {
  return (uint64_t{5} << 40) | static_cast<uint64_t>(lane);
}

uint64_t CellKey(int domain, uint64_t index) {
  return (static_cast<uint64_t>(domain) << 44) | index;
}

/// At least one write, and not both atomic (atomic/atomic pairs are the
/// synchronization idiom the kernels rely on).
bool Conflicts(AccessClass a, AccessClass b) {
  if (!IsWrite(a) && !IsWrite(b)) return false;
  return !(IsAtomic(a) && IsAtomic(b));
}

uint64_t MixHash(uint64_t h, uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

}  // namespace

std::string RaceDetector::DomainName(int domain) {
  if (domain >= kJobWaBase) {
    const int offset = domain - kJobWaBase;
    return "job" + std::to_string(offset / kJobWaStride) + ".gpu" +
           std::to_string(offset % kJobWaStride) + ".wa";
  }
  if (domain == kCpuWaDomain) return "cpu.wa";
  if (domain == kMmbufDomain) return "mmbuf";
  if (domain >= 2000) return "gpu" + std::to_string(domain - 2000) + ".cache";
  return "gpu" + std::to_string(domain) + ".wa";
}

void RaceDetector::BeginRun() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Lane& lane : lanes_) lane.clock = VectorClock();
  events_.clear();
  page_ready_.clear();
  shadow_.clear();
  races_.clear();
  race_keys_.clear();
  races_detected_ = 0;
  wa_accesses_ = 0;
}

void RaceDetector::ResolveTimestamps(const gpu::ScheduleResult& schedule) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Race& race : races_) {
    for (RaceAccess* a : {&race.first, &race.second}) {
      if (a->op != gpu::kNoOp && a->op < schedule.ops.size()) {
        a->sim_time = schedule.ops[a->op].start;
      }
    }
  }
}

RaceReport RaceDetector::TakeReport() {
  std::lock_guard<std::mutex> lock(mu_);
  RaceReport report;
  report.race_check_ran = true;
  report.wa_accesses = wa_accesses_;
  report.races_detected = races_detected_;
  report.races = std::move(races_);
  races_.clear();
  race_keys_.clear();
  races_detected_ = 0;
  wa_accesses_ = 0;
  return report;
}

int RaceDetector::LaneLocked(uint64_t key, std::string name, int stream_key) {
  auto [it, inserted] = lane_ids_.try_emplace(key, -1);
  if (inserted) {
    it->second = static_cast<int>(lanes_.size());
    lanes_.push_back(Lane{std::move(name), stream_key, VectorClock()});
  }
  return it->second;
}

int RaceDetector::HostLane() {
  std::lock_guard<std::mutex> lock(mu_);
  return LaneLocked(kHostKey, "host", -1);
}

int RaceDetector::StreamLane(int gpu, int stream, int stream_key) {
  std::lock_guard<std::mutex> lock(mu_);
  return LaneLocked(StreamLaneKey(gpu, stream),
                    "gpu" + std::to_string(gpu) + ".stream" +
                        std::to_string(stream),
                    stream_key);
}

int RaceDetector::CopyLane(int gpu) {
  std::lock_guard<std::mutex> lock(mu_);
  return LaneLocked(CopyLaneKey(gpu), "gpu" + std::to_string(gpu) + ".copy",
                    -1);
}

int RaceDetector::StorageLane(int device) {
  std::lock_guard<std::mutex> lock(mu_);
  return LaneLocked(StorageLaneKey(device),
                    "storage" + std::to_string(device), -1);
}

int RaceDetector::CpuLane(int lane, int stream_key) {
  std::lock_guard<std::mutex> lock(mu_);
  return LaneLocked(CpuLaneKey(lane), "cpu" + std::to_string(lane),
                    stream_key);
}

void RaceDetector::BeginOp(int lane) {
  std::lock_guard<std::mutex> lock(mu_);
  lanes_[lane].clock.Tick(static_cast<size_t>(lane));
}

void RaceDetector::Join(int dst, int src) {
  std::lock_guard<std::mutex> lock(mu_);
  lanes_[dst].clock.Join(lanes_[src].clock);
  // Release-tick: the source's *later* steps must not inherit this edge.
  lanes_[src].clock.Tick(static_cast<size_t>(src));
}

void RaceDetector::Fuse(int a, int b) {
  std::lock_guard<std::mutex> lock(mu_);
  lanes_[a].clock.Join(lanes_[b].clock);
  lanes_[b].clock.Join(lanes_[a].clock);
  lanes_[a].clock.Tick(static_cast<size_t>(a));
  lanes_[b].clock.Tick(static_cast<size_t>(b));
}

int RaceDetector::RecordEvent(int lane) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(lanes_[lane].clock);
  lanes_[lane].clock.Tick(static_cast<size_t>(lane));
  return static_cast<int>(events_.size()) - 1;
}

void RaceDetector::WaitEvent(int lane, int event) {
  std::lock_guard<std::mutex> lock(mu_);
  GTS_DCHECK(event >= 0 && event < static_cast<int>(events_.size()));
  lanes_[lane].clock.Join(events_[static_cast<size_t>(event)]);
}

void RaceDetector::BarrierAcquire() {
  const int host = HostLane();
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t l = 0; l < lanes_.size(); ++l) {
    if (static_cast<int>(l) == host) continue;
    lanes_[host].clock.Join(lanes_[l].clock);
    lanes_[l].clock.Tick(l);
  }
  lanes_[host].clock.Tick(static_cast<size_t>(host));
}

void RaceDetector::BarrierRelease() {
  const int host = HostLane();
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t l = 0; l < lanes_.size(); ++l) {
    if (static_cast<int>(l) == host) continue;
    lanes_[l].clock.Join(lanes_[host].clock);
  }
  lanes_[host].clock.Tick(static_cast<size_t>(host));
}

void RaceDetector::OnPageStaged(int device, PageId pid, gpu::OpIndex op) {
  const int host = HostLane();
  const int lane = op == gpu::kNoOp ? host : StorageLane(device);
  if (lane != host) {
    // The host initiated the issue; the device write follows it.
    Join(lane, host);
    BeginOp(lane);
  }
  OnPageAccess(lane, kMmbufDomain, pid, /*write=*/true, op);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(lanes_[lane].clock);
  lanes_[lane].clock.Tick(static_cast<size_t>(lane));
  page_ready_[pid] = static_cast<int>(events_.size()) - 1;
}

void RaceDetector::OnPageDelivered(PageId pid) {
  const int host = HostLane();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_ready_.find(pid);
  if (it == page_ready_.end()) return;  // preloaded: no staging this run
  lanes_[host].clock.Join(events_[static_cast<size_t>(it->second)]);
}

RaceAccess RaceDetector::MakeAccess(int lane, AccessClass cls,
                                    gpu::OpIndex op, PageId page) const {
  RaceAccess a;
  a.lane = lanes_[static_cast<size_t>(lane)].name;
  a.stream_key = lanes_[static_cast<size_t>(lane)].stream_key;
  a.cls = cls;
  a.op = op;
  a.page = page;
  return a;
}

void RaceDetector::AccessLocked(int lane, int domain, uint64_t index,
                                uint32_t size, AccessClass cls,
                                gpu::OpIndex op, PageId page) {
  Cell& cell = shadow_[CellKey(domain, index)];
  const VectorClock& my_clock = lanes_[static_cast<size_t>(lane)].clock;

  for (int c = 0; c < 4; ++c) {
    const auto other_cls = static_cast<AccessClass>(c);
    if (!Conflicts(cls, other_cls)) continue;
    const std::vector<LaneAccess>& others = cell.cls[c];
    for (size_t l = 0; l < others.size(); ++l) {
      if (static_cast<int>(l) == lane) continue;  // program order
      const LaneAccess& la = others[l];
      if (la.time == 0) continue;
      if (la.time <= my_clock.Get(l)) continue;  // happens-before me
      ++races_detected_;
      uint64_t key = MixHash(14695981039346656037ull,
                             static_cast<uint64_t>(domain));
      key = MixHash(key, l);
      key = MixHash(key, la.op);
      key = MixHash(key, static_cast<uint64_t>(lane));
      key = MixHash(key, op);
      if (races_.size() < max_reported_ && race_keys_.insert(key).second) {
        Race race;
        race.domain = DomainName(domain);
        race.offset = domain == kMmbufDomain || domain >= 2000
                          ? index
                          : index * kGranule;
        race.size = size;
        race.first = MakeAccess(static_cast<int>(l), other_cls, la.op,
                                la.page);
        race.second = MakeAccess(lane, cls, op, page);
        races_.push_back(std::move(race));
      }
    }
  }

  std::vector<LaneAccess>& mine = cell.cls[static_cast<int>(cls)];
  if (mine.size() <= static_cast<size_t>(lane)) {
    mine.resize(static_cast<size_t>(lane) + 1);
  }
  mine[static_cast<size_t>(lane)] =
      LaneAccess{my_clock.Get(static_cast<size_t>(lane)), op, page};
}

void RaceDetector::OnWaAccess(int lane, int domain, uint64_t offset,
                              uint32_t size, AccessClass cls,
                              gpu::OpIndex op, PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  ++wa_accesses_;
  const uint64_t first = offset / kGranule;
  const uint64_t last = (offset + (size == 0 ? 1 : size) - 1) / kGranule;
  for (uint64_t g = first; g <= last; ++g) {
    AccessLocked(lane, domain, g, size, cls, op, page);
  }
}

void RaceDetector::OnPageAccess(int lane, int domain, PageId pid, bool write,
                                gpu::OpIndex op) {
  std::lock_guard<std::mutex> lock(mu_);
  AccessLocked(lane, domain, pid, /*size=*/0,
               write ? AccessClass::kPlainWrite : AccessClass::kPlainRead,
               op, kInvalidPageId);
}

uint64_t RaceDetector::wa_accesses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wa_accesses_;
}

uint64_t RaceDetector::races_detected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return races_detected_;
}

}  // namespace analysis
}  // namespace gts
