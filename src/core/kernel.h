// The user-defined GPU kernel interface (Section 3.4, Appendix B).
//
// A graph algorithm theta supplies a kernel pair K_SP / K_LP plus the
// host-side lifecycle of its attribute vectors: WA (read/write, resident in
// device memory) and RA (read-only, streamed per page alongside topology).
#ifndef GTS_CORE_KERNEL_H_
#define GTS_CORE_KERNEL_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "analysis/analysis_options.h"
#include "analysis/race_detector.h"
#include "core/frontier.h"
#include "gpu/time_model.h"
#include "graph/types.h"
#include "storage/paged_graph.h"
#include "storage/slotted_page.h"

namespace gts {

/// The two algorithm families of Section 3.3.
enum class AccessPattern : uint8_t {
  kTraversal,  ///< BFS-like: level-by-level, page-granular frontier, cache
  kFullScan,   ///< PageRank-like: one linear pass over all pages
};

/// Micro-level (intra-page) parallel processing technique (Section 6.2).
enum class MicroStrategy : uint8_t {
  kVertexCentric,  ///< one thread walks one vertex's whole adjacency list
  kEdgeCentric,    ///< virtual-warp-centric [15]: a warp shares one vertex
  kHybrid,         ///< per-page choice by predicted warp cycles
};

std::string_view MicroStrategyName(MicroStrategy strategy);

/// Work performed by one kernel invocation, in units the timing model
/// understands. warp_cycles and mem_transactions are strategy-dependent
/// (see core/micro.h): vertex-centric execution pays divergence cycles and
/// non-coalesced memory transactions.
struct WorkStats {
  uint64_t scanned_slots = 0;      ///< records inspected
  uint64_t active_vertices = 0;    ///< records actually expanded
  uint64_t edges_processed = 0;    ///< adjacency entries visited
  uint64_t warp_cycles = 0;        ///< in-core cycles consumed
  uint64_t mem_transactions = 0;   ///< global-memory transactions issued
  uint64_t wa_updates = 0;         ///< WA entries actually written

  WorkStats& operator+=(const WorkStats& other) {
    scanned_slots += other.scanned_slots;
    active_vertices += other.active_vertices;
    edges_processed += other.edges_processed;
    warp_cycles += other.warp_cycles;
    mem_transactions += other.mem_transactions;
    wa_updates += other.wa_updates;
    return *this;
  }
};

namespace kernel_internal {

/// Compare-exchange as a plain host operation, for KernelContext::serial.
template <typename T>
bool PlainCas(T& word, T& expected, T desired) {
  if (std::memcmp(&word, &expected, sizeof(T)) == 0) {
    word = desired;
    return true;
  }
  expected = word;
  return false;
}

}  // namespace kernel_internal

/// Everything a kernel invocation sees inside the (simulated) device.
struct KernelContext {
  const Rvt* rvt = nullptr;  ///< RID -> VID mapping table (Appendix A)

  /// Device-resident WA. Covers vertex ids [wa_begin, wa_end); index with
  /// (v - wa_begin). Under Strategy-P the range is the whole graph; under
  /// Strategy-S it is this GPU's chunk and writes outside it are dropped.
  uint8_t* wa = nullptr;
  VertexId wa_begin = 0;
  VertexId wa_end = 0;

  /// Streamed RA subvector for this page (nullptr if the kernel has none);
  /// covers vertex ids starting at ra_start_vid.
  const uint8_t* ra = nullptr;
  VertexId ra_start_vid = 0;

  /// Current traversal level (BFS-like kernels).
  uint32_t cur_level = 0;

  /// This GPU's local nextPIDSet (BFS-like kernels); null for full scans.
  PidSet* next_pid_set = nullptr;

  /// Per-vertex out-degrees (indexed by vertex id), set by the engine when
  /// the frontier counts activations; null otherwise. Lets MarkActivated
  /// weight the page-granular frontier by active edges.
  const uint32_t* out_degrees = nullptr;

  MicroStrategy micro = MicroStrategy::kEdgeCentric;

  /// Set by the engine when it runs this call inline on the driver thread,
  /// one kernel call at a time: the push loop without stream threads, and
  /// the CPU-assist lane, whose host WA replica only the driver touches.
  /// No other thread can access this WA during the call, so WaCas,
  /// WaCasWeak, WaFetchAdd and WaFetchOr run as plain host operations
  /// (same values, same return semantics). Stream threads and pull
  /// dispatch leave it false and keep the atomic path. The race
  /// detector's logical classification is the same either way.
  bool serial = false;

  /// True when vertex id v is in this context's WA ownership range.
  bool OwnsVertex(VertexId v) const { return v >= wa_begin && v < wa_end; }

  /// Marks `rid`'s page in the next frontier after a successful claim of
  /// vertex `vid`. When the engine supplied the degree table the
  /// activation is weighted by the vertex's out-degree (active-edge
  /// counting; a zero-degree claim still sets the page bit), otherwise
  /// by 1.
  void MarkActivated(const RecordId& rid, VertexId vid) const {
    next_pid_set->Set(rid.pid,
                      out_degrees != nullptr ? out_degrees[vid] : 1);
  }

  template <typename T>
  T* WaAs() {
    return reinterpret_cast<T*>(wa);
  }

  /// Where the instrumented Wa* helpers report (engine-stamped; a null
  /// detector disables reporting). The engine stamps it only when the
  /// build carries -DGTS_RACE_CHECK=ON; the per-access reports below are
  /// compiled out otherwise, so the OFF build pays nothing per edge.
  analysis::AccessSite race_site;

  /// Reports one WA access to the race detector. `addr` must point into
  /// [wa, wa + (wa_end - wa_begin) * bytes_per_vertex).
  void NoteWa(const void* addr, uint32_t size,
              analysis::AccessClass cls) const {
    if (race_site.detector == nullptr) return;
    const uint64_t offset = static_cast<uint64_t>(
        reinterpret_cast<const uint8_t*>(addr) - wa);
    race_site.detector->OnWaAccess(race_site.lane, race_site.domain, offset,
                                   size, cls, race_site.op, race_site.page);
  }

  // Instrumented WA access API. All WA reads and writes must go through
  // these helpers. Loads and stores are relaxed std::atomic_ref
  // operations at host level (so host TSan stays clean in either build);
  // the read-modify-writes are too, unless `serial` is set, when they
  // are plain host operations. Each helper carries a *logical*
  // classification -- WaRead/WaStore are plain-classified, the rest
  // atomic-classified, whatever `serial` says -- that the
  // -DGTS_RACE_CHECK=ON build reports to the happens-before detector.
  // Under the simulated schedule, a plain-classified access that is
  // concurrent with any conflicting access is a logical data race even
  // though the host execution never faults.

  /// Atomic relaxed load (peer streams CAS/RMW concurrently).
  template <typename T>
  T WaLoad(T& word) const {
#if GTS_RACE_CHECK_ENABLED
    NoteWa(&word, sizeof(T), analysis::AccessClass::kAtomicRead);
#endif
    return std::atomic_ref<T>(word).load(std::memory_order_relaxed);
  }

  /// Plain-classified read: the kernel asserts no concurrent conflicting
  /// access exists (e.g. BC's backward sweep reading the previous level's
  /// settled entries). The detector checks the assertion.
  template <typename T>
  T WaRead(T& word) const {
#if GTS_RACE_CHECK_ENABLED
    NoteWa(&word, sizeof(T), analysis::AccessClass::kPlainRead);
#endif
    return std::atomic_ref<T>(word).load(std::memory_order_relaxed);
  }

  /// Plain-classified store: the kernel asserts exclusive ownership of
  /// the word (e.g. one SP record per vertex). The detector checks it.
  template <typename T>
  void WaStore(T& word, T value) const {
#if GTS_RACE_CHECK_ENABLED
    NoteWa(&word, sizeof(T), analysis::AccessClass::kPlainWrite);
#endif
    std::atomic_ref<T>(word).store(value, std::memory_order_relaxed);
  }

  /// Atomic compare-exchange (strong). Classified as an atomic RMW write
  /// whether or not the exchange succeeds. Like the atomic, it compares
  /// object representations and, on failure, loads `word` into
  /// `expected`.
  template <typename T>
  bool WaCas(T& word, T& expected, T desired) const {
#if GTS_RACE_CHECK_ENABLED
    NoteWa(&word, sizeof(T), analysis::AccessClass::kAtomicWrite);
#endif
    if (serial) return kernel_internal::PlainCas(word, expected, desired);
    return std::atomic_ref<T>(word).compare_exchange_strong(
        expected, desired, std::memory_order_relaxed);
  }

  /// Atomic compare-exchange (weak; use in retry loops). The serial form
  /// never fails spuriously.
  template <typename T>
  bool WaCasWeak(T& word, T& expected, T desired) const {
#if GTS_RACE_CHECK_ENABLED
    NoteWa(&word, sizeof(T), analysis::AccessClass::kAtomicWrite);
#endif
    if (serial) return kernel_internal::PlainCas(word, expected, desired);
    return std::atomic_ref<T>(word).compare_exchange_weak(
        expected, desired, std::memory_order_relaxed);
  }

  /// Atomic fetch-add (integers and, in C++20, floats). Integers wrap
  /// like the atomic, also in the serial form.
  template <typename T>
  T WaFetchAdd(T& word, T add) const {
#if GTS_RACE_CHECK_ENABLED
    NoteWa(&word, sizeof(T), analysis::AccessClass::kAtomicWrite);
#endif
    if (serial) {
      const T old = word;
      if constexpr (std::is_integral_v<T>) {
        using U = std::make_unsigned_t<T>;
        word = static_cast<T>(
            static_cast<U>(static_cast<U>(old) + static_cast<U>(add)));
      } else {
        word = old + add;
      }
      return old;
    }
    return std::atomic_ref<T>(word).fetch_add(add,
                                              std::memory_order_relaxed);
  }

  /// Atomic fetch-or (integer bit sketches).
  template <typename T>
  T WaFetchOr(T& word, T bits) const {
#if GTS_RACE_CHECK_ENABLED
    NoteWa(&word, sizeof(T), analysis::AccessClass::kAtomicWrite);
#endif
    if (serial) {
      const T old = word;
      word = static_cast<T>(old | bits);
      return old;
    }
    return std::atomic_ref<T>(word).fetch_or(bits,
                                             std::memory_order_relaxed);
  }

  template <typename T>
  const T* RaAs() const {
    return reinterpret_cast<const T*>(ra);
  }
};

/// A graph algorithm plugged into the GTS framework.
///
/// The kernel object owns the algorithm's host-side attribute arrays and is
/// reused across iterations/levels; the engine moves data between the host
/// arrays and device buffers around each pass.
class GtsKernel {
 public:
  virtual ~GtsKernel() = default;

  virtual std::string name() const = 0;
  virtual AccessPattern access_pattern() const = 0;

  /// Bytes of WA per vertex (e.g. BFS: 2, PageRank: 4).
  virtual uint32_t wa_bytes_per_vertex() const = 0;

  /// Traversal kernels may ask the engine to report which pages were
  /// processed at each level (RunMetrics::level_pages).
  virtual bool collect_level_pages() const { return false; }
  /// Bytes of streamed RA per vertex; 0 if the algorithm has no RA.
  virtual uint32_t ra_bytes_per_vertex() const = 0;

  /// Seconds one global-memory transaction of this kernel costs (the
  /// compute/memory intensity knob; BFS-like kernels are cheap per edge,
  /// PageRank-like kernels pay float math plus an atomicAdd).
  virtual double seconds_per_mem_transaction(const TimeModel& model) const = 0;

  /// Host RA base pointer (indexed by vertex id); null if no RA.
  virtual const uint8_t* host_ra() const { return nullptr; }

  /// Fills a device WA buffer covering [begin, end) before a pass.
  /// BFS copies current levels; PageRank zeroes the partial-sum vector.
  virtual void InitDeviceWa(uint8_t* device_wa, VertexId begin,
                            VertexId end) const = 0;

  /// Folds a device WA buffer covering [begin, end) back into the host
  /// array after a pass (min for levels, add for rank contributions; under
  /// Strategy-S the ranges are disjoint, under Strategy-P they overlap).
  virtual void AbsorbDeviceWa(const uint8_t* device_wa, VertexId begin,
                              VertexId end) = 0;

  /// K_SP: processes one small page (Appendix B). Must be thread-safe
  /// across concurrent pages (access WA only through the
  /// KernelContext::Wa* helpers, which are atomic unless the engine runs
  /// the call serially).
  ///
  /// Page-bytes contract: on a cache hit `page` views the device page
  /// cache directly -- the engine holds a PageCache::Pin for the duration
  /// of the call, which keeps the bytes stable while concurrent streams
  /// insert and evict around it. Kernels must treat page memory as
  /// strictly read-only (topology is immutable; writes go to WA) and must
  /// not retain the view past the call.
  virtual WorkStats RunSp(const PageView& page, KernelContext& ctx) = 0;

  /// K_LP: processes one large-page chunk of a single vertex. Same
  /// thread-safety and page-bytes contract as RunSp.
  virtual WorkStats RunLp(const PageView& page, KernelContext& ctx) = 0;
};

inline std::string_view MicroStrategyName(MicroStrategy strategy) {
  switch (strategy) {
    case MicroStrategy::kVertexCentric:
      return "vertex-centric";
    case MicroStrategy::kEdgeCentric:
      return "edge-centric";
    case MicroStrategy::kHybrid:
      return "hybrid";
  }
  return "?";
}

}  // namespace gts

#endif  // GTS_CORE_KERNEL_H_
