// GtsEngine's private state, shared by the engine's stage files:
// engine.cc (the epoch: options, construction, admission and buffers,
// RunJobBatch, FinalizeBatchEpoch), engine_plan.cc (pass planning and
// page routing), engine_launch.cc (page staging and kernel launches on
// the GPU workers and host lanes) and engine_sync.cc (WA upload,
// download and level exchange).
#ifndef GTS_CORE_ENGINE_INTERNAL_H_
#define GTS_CORE_ENGINE_INTERNAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/job/job_exec.h"
#include "gpu/device.h"
#include "gpu/stream.h"

namespace gts {

/// Encodes (gpu, stream) into a ScheduleSimulator stream key.
inline int StreamKey(int gpu, int stream) {
  return gpu * GtsOptions::kMaxStreamsPerGpu + stream;
}

/// Per-GPU state shared by every job of an epoch. Each job's WA replica,
/// frontier contribution and per-stream work live in its JobReplica.
struct GtsEngine::GpuState {
  GpuState(int num_workers, size_t ring_depth, uint64_t page_size) {
    for (int w = 0; w < num_workers; ++w) {
      workers.push_back(std::make_unique<gpu::Stream>(ring_depth, page_size));
    }
  }

  std::unique_ptr<gpu::Device> device;
  /// The host workers: each runs the launches of the jobs it owns in the
  /// pass (JobExec::worker) in dispatch order. A staged page waits in its
  /// ring slot's buffer.
  std::vector<std::unique_ptr<gpu::Stream>> workers;
  /// Device memory of the SPBuf, LPBuf and RABuf of every stream,
  /// accounted without host bytes: the workers' rings and the kernels'
  /// host RA arrays hold what the kernels read.
  uint64_t stream_buf_bytes = 0;
  std::vector<int> stream_last_kind;  // -1 until a kernel ran on the stream
  /// Kept across epochs, so its page buffers are too.
  std::unique_ptr<PageCache> page_cache;
  PageCache* cache = nullptr;  // page_cache while an epoch caches, else null
  int rr = 0;  // round-robin stream cursor
};

/// One job's kernel launch against a staged or cached page: recorded by
/// the driver and run by the job's worker on a GPU, which reads nothing
/// else of the job, or inline on a host lane. One cache line each keeps
/// the driver's and the workers' writes apart.
struct alignas(64) GtsEngine::JobLaunch {
  GtsKernel* kernel = nullptr;
  JobReplica* replica = nullptr;
  const uint8_t* ra = nullptr;  // the page's host RA subvector, read in place
  gpu::OpIndex kidx = gpu::kNoOp;
  uint32_t level = 0;
  int32_t job_id = -1;
  int32_t gpu = 0;  // the replica's GPU, or num_gpus for the host replica
  SimTime duration = 0.0;  // kernel time, written by RunLaunch
};

}  // namespace gts

#endif  // GTS_CORE_ENGINE_INTERNAL_H_
