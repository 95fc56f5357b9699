// A vector-clock happens-before race detector over *simulated* time.
//
// Host TSan can only catch races whose interleaving actually manifests on
// host threads; the discrete-event scheduler routinely serializes
// logically-concurrent kernels (inline execution runs them back to back),
// so logical races hide. This detector (FastTrack / Barracuda / iGUARD
// lineage, see PAPERS.md) re-derives concurrency from the *schedule
// edges* the engine records, independent of host execution order:
//
//   Lanes (one vector clock each):
//     host            the engine's dispatch loop
//     gpu<g>.stream<s> one per (GPU, stream)
//     gpu<g>.copy     the GPU's copy engine (serial resource)
//     storage<d>      one per storage device (serial resource)
//     cpu<l>          host-CPU co-processing worker lanes
//
//   Edge taxonomy:
//     issue        op lane joins host when the host issues work on it
//     stream order  per-lane program order (CUDA in-stream ordering)
//     copy fusion   an H2D on a stream fuses the stream and copy-engine
//                   clocks: the copy engine serializes transfers, and the
//                   stream's next kernel waits for its transfer
//     event        record/wait snapshots (page staged -> page delivered;
//                  an MMBuf read -> the refill of its slot)
//     barrier      BSP level boundaries: BarrierAcquire joins every lane
//                  into host, BarrierRelease fans host back out
//
//   Shadow state:
//     WA domains  one cell per 4-byte granule per WA replica
//                 ("gpu<g>.wa", "cpu.wa"; "job<j>.gpu<g>.wa" for the
//                 jobs of a multi-job batch epoch); wider accesses check
//                 each granule they cover
//     page domains one cell per page for MMBuf ("mmbuf") and the per-GPU
//                 page caches ("gpu<g>.cache")
//
// Two accesses race iff they touch the same cell, at least one is a
// write, they are not both atomic, and neither happens-before the other.
//
// The detector is a pure observer: it records no timeline ops and never
// perturbs the schedule; builds with -DGTS_RACE_CHECK=OFF compile the
// per-access instrumentation out and the engine never constructs a
// detector (this class still compiles for unit tests). All entry points
// are mutex-guarded so the GPU workers may report accesses from their
// own threads; attribution is to *logical* lanes, so the verdict does
// not depend on which host thread ran a kernel.
#ifndef GTS_ANALYSIS_RACE_DETECTOR_H_
#define GTS_ANALYSIS_RACE_DETECTOR_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/race_report.h"
#include "analysis/vector_clock.h"
#include "gpu/schedule.h"
#include "graph/types.h"

namespace gts {
namespace analysis {

class RaceDetector;

/// Stamped into KernelContext by the engine so the instrumented Wa*
/// helpers know where an access lands: which detector, logical lane, WA
/// shadow domain, enclosing timeline op and topology page.
struct AccessSite {
  RaceDetector* detector = nullptr;
  int lane = 0;
  int domain = 0;
  gpu::OpIndex op = gpu::kNoOp;
  PageId page = kInvalidPageId;
};

class RaceDetector {
 public:
  /// Shadow-domain ids. WA replicas use WaDomain()/kCpuWaDomain; page
  /// cells use kMmbufDomain/CacheDomain(). In a multi-job batch epoch
  /// every job owns its WA replicas, so WaDomain(gpu, job) gives each
  /// job one domain per GPU ("job<j>.gpu<g>.wa"); job < 0 (every
  /// single-job run) keeps the per-GPU domain "gpu<g>.wa".
  static int WaDomain(int gpu, int job = -1) {
    return job < 0 ? gpu : kJobWaBase + job * kJobWaStride + gpu;
  }
  static constexpr int kCpuWaDomain = 1000;
  static constexpr int kMmbufDomain = 1001;
  static int CacheDomain(int gpu) { return 2000 + gpu; }
  static std::string DomainName(int domain);

  /// Shadow granularity for WA domains, in bytes.
  static constexpr uint32_t kGranule = 4;

  explicit RaceDetector(uint32_t max_reported = 64)
      : max_reported_(max_reported) {}

  // ------------------------------------------------------------- lifecycle

  /// Clears clocks, shadow state and findings for a new run.
  void BeginRun();

  /// Fills RaceAccess::sim_time on every stored race from the simulated
  /// op start times (call after ScheduleSimulator::Run).
  void ResolveTimestamps(const gpu::ScheduleResult& schedule);

  /// Moves the findings out; the detector stays usable (BeginRun next).
  RaceReport TakeReport();

  // --------------------------------------------------------- lane registry
  // Lanes are created on first use; ids are stable for the detector's
  // lifetime. `stream_key` mirrors the simulator's encoding so
  // diagnostics line up with the exported trace.

  int HostLane();
  int StreamLane(int gpu, int stream, int stream_key);
  int CopyLane(int gpu);
  int StorageLane(int device);
  int CpuLane(int lane, int stream_key);

  // -------------------------------------------------------- schedule edges

  /// A new logical operation begins on `lane` (advances its component).
  void BeginOp(int lane);
  /// Everything `src` has done happens-before `dst`'s next step.
  void Join(int dst, int src);
  /// Serial-resource fusion (an H2D op belongs to both its stream and the
  /// copy engine): both lanes see each other's past.
  void Fuse(int a, int b);
  /// Snapshots `lane`'s clock; WaitEvent(l, id) makes l inherit it.
  int RecordEvent(int lane);
  void WaitEvent(int lane, int event);
  /// BSP level boundary: host joins every lane / every lane joins host.
  void BarrierAcquire();
  void BarrierRelease();

  // ------------------------------------------- MMBuf staging (gts::io)

  /// A storage device staged page `pid` into MMBuf under recorded op
  /// `op` (kNoOp for zero-cost devices: attributed to the host lane).
  /// Registers the page's "ready" event for later deliveries. When the
  /// read refilled the slot of `evicted` (IoEngine::Fetched::evicted),
  /// the storage lane first waits for the OnMmbufRead event of every op
  /// the recorded read depends on in `ops` (through zero-cost host
  /// joins), then writes `evicted`'s cell: a refill recorded without
  /// those dependencies races with the old page's readers.
  void OnPageStaged(int device, PageId pid, gpu::OpIndex op,
                    PageId evicted = kInvalidPageId,
                    const std::vector<gpu::TimelineOp>& ops = {});
  /// IoEngine::Acquire handed `pid`'s bytes to the host: the host joins
  /// the page's staging event (no-op for preloaded pages with no event).
  void OnPageDelivered(PageId pid);
  /// `lane` reads `pid`'s MMBuf bytes under op `op` (an H2D or a
  /// CPU-assist kernel), and records an event that a refill of the
  /// page's slot depending on `op` waits for.
  void OnMmbufRead(int lane, PageId pid, gpu::OpIndex op);

  // --------------------------------------------------------------- accesses

  /// A WA access of `size` bytes at byte `offset` into domain's replica
  /// buffer. Checks every 4-byte granule the access covers.
  void OnWaAccess(int lane, int domain, uint64_t offset, uint32_t size,
                  AccessClass cls, gpu::OpIndex op, PageId page);
  /// A whole-page access (MMBuf or cache domains).
  void OnPageAccess(int lane, int domain, PageId pid, bool write,
                    gpu::OpIndex op);

  uint64_t wa_accesses() const;
  uint64_t races_detected() const;

 private:
  struct Lane {
    std::string name;
    int stream_key = -1;
    VectorClock clock;
  };

  /// Last access per lane in one access class of one cell.
  struct LaneAccess {
    uint64_t time = 0;  ///< 0 = never accessed
    gpu::OpIndex op = gpu::kNoOp;
    PageId page = kInvalidPageId;
  };
  struct Cell {
    // Indexed by static_cast<int>(AccessClass); lanes resized on demand.
    std::vector<LaneAccess> cls[4];
  };

  static constexpr int kJobWaBase = 10000;
  static constexpr int kJobWaStride = 1000;  ///< > any GPU index

  int LaneLocked(uint64_t key, std::string name, int stream_key);
  /// `lane` inherits the OnMmbufRead event of every op that recorded op
  /// `op` depends on in `ops`, looking through kHostCompute joins.
  void WaitForReads(int lane, gpu::OpIndex op,
                    const std::vector<gpu::TimelineOp>& ops);
  void AccessLocked(int lane, int domain, uint64_t index, uint32_t size,
                    AccessClass cls, gpu::OpIndex op, PageId page);
  RaceAccess MakeAccess(int lane, AccessClass cls, gpu::OpIndex op,
                        PageId page) const;

  mutable std::mutex mu_;
  uint32_t max_reported_;

  std::vector<Lane> lanes_;
  std::unordered_map<uint64_t, int> lane_ids_;

  std::vector<VectorClock> events_;
  std::unordered_map<PageId, int> page_ready_;  ///< pid -> staging event
  /// Op of an MMBuf read -> the reader lane's event after the read.
  std::unordered_map<gpu::OpIndex, int> read_done_;

  // Shadow cells keyed by (domain, granule-or-page index).
  std::unordered_map<uint64_t, Cell> shadow_;

  std::vector<Race> races_;
  std::unordered_set<uint64_t> race_keys_;  ///< dedup (lanes x ops x cell)
  uint64_t races_detected_ = 0;
  uint64_t wa_accesses_ = 0;
};

}  // namespace analysis
}  // namespace gts

#endif  // GTS_ANALYSIS_RACE_DETECTOR_H_
