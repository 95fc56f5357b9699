#include <algorithm>
#include <vector>

#include "core/engine_internal.h"

namespace gts {

namespace {
// A Strategy-S GPU whose chunk starts past the last vertex owns an empty
// WA slice with no buffer behind it; the kernel hooks skip it.
void InitReplicaWa(const GtsKernel* kernel, JobReplica& replica) {
  if (replica.wa_begin == replica.wa_end) return;
  kernel->InitDeviceWa(replica.wa_buf.data(), replica.wa_begin,
                       replica.wa_end);
}

void AbsorbReplicaWa(GtsKernel* kernel, const JobReplica& replica) {
  if (replica.wa_begin == replica.wa_end) return;
  kernel->AbsorbDeviceWa(replica.wa_buf.data(), replica.wa_begin,
                         replica.wa_end);
}
}  // namespace

void GtsEngine::NoteWaReplica(const JobExec& job, int r, int lane,
                              analysis::AccessClass cls, gpu::OpIndex op) {
  if (race_ == nullptr) return;
  const JobReplica& replica = job.replicas[static_cast<size_t>(r)];
  const uint64_t bytes =
      static_cast<uint64_t>(replica.wa_end - replica.wa_begin) *
      job.kernel->wa_bytes_per_vertex();
  const int domain = r == machine_.num_gpus
                         ? analysis::RaceDetector::kCpuWaDomain
                         : analysis::RaceDetector::WaDomain(r, job.job_id);
  race_->OnWaAccess(lane, domain, 0, static_cast<uint32_t>(bytes), cls, op,
                    kInvalidPageId);
}

gpu::OpIndex GtsEngine::RecordCopy(gpu::OpKind kind, int gpu, uint64_t bytes,
                                   double bandwidth, int32_t job,
                                   int stream_key, PageId page) {
  gpu::TimelineOp op;
  op.kind = kind;
  op.stream_key = stream_key;
  op.resource = {gpu::ResourceId::Type::kCopyEngine, gpu};
  op.duration = static_cast<double>(bytes) / bandwidth;
  op.bytes = bytes;
  op.page = page;
  op.job = job;
  return RecordOp(op);
}

void GtsEngine::UploadWaJob(JobExec* job) {
  const TimeModel& tm = machine_.time_model;
  GtsKernel* kernel = job->kernel;
  const uint32_t wa_b = kernel->wa_bytes_per_vertex();
  for (size_t r = 0; r < job->replicas.size(); ++r) {
    JobReplica& replica = job->replicas[r];
    const int g = static_cast<int>(r);
    if (g == machine_.num_gpus) {
      // The host replica crosses no PCI-E link, so no timeline op.
      InitReplicaWa(kernel, replica);
      if (race_ != nullptr) {
        NoteWaReplica(*job, g, race_->HostLane(),
                      analysis::AccessClass::kPlainWrite, gpu::kNoOp);
      }
      continue;
    }
    const uint64_t bytes =
        static_cast<uint64_t>(replica.wa_end - replica.wa_begin) * wa_b;
    const gpu::OpIndex op_idx =
        RecordCopy(gpu::OpKind::kH2DChunk, g, bytes, tm.c1, job->job_id,
                   StreamKey(g, 0));
    InitReplicaWa(kernel, replica);
    if (race_ != nullptr) {
      // The WA upload is the copy engine writing WABuf. Every level-0
      // kernel has its page H2D serialized after this chunk on the same
      // copy engine, so fusing the copy lane with stream 0 here and with
      // each page's stream at its H2DStream (StreamPageToGpuBatch)
      // carries the upload->kernel happens-before edge without a global
      // barrier.
      const int copy = race_->CopyLane(g);
      race_->Join(copy, race_->HostLane());
      race_->BeginOp(copy);
      NoteWaReplica(*job, g, copy, analysis::AccessClass::kPlainWrite,
                    op_idx);
      race_->Fuse(copy, race_->StreamLane(g, 0, StreamKey(g, 0)));
    }
  }
}

void GtsEngine::DownloadWaJob(JobExec* job) {
  const TimeModel& tm = machine_.time_model;
  GtsKernel* kernel = job->kernel;
  const uint32_t wa_b = kernel->wa_bytes_per_vertex();
  const int n_gpus = machine_.num_gpus;

  // WA sync happens after the whole pass completes (Step 3/4, Figure 5):
  // the job's final WA state exists only after every in-flight kernel of
  // the pass retired.
  recorder_.AddBarrier(0.0);
  // The download is barrier-ordered: its ops are recorded after the
  // AddBarrier above, so every kernel of the pass happens-before the
  // host-side absorb.
  if (race_ != nullptr) race_->BarrierAcquire();

  // The host replica's entry stays kNoOp: it is host-internal.
  std::vector<gpu::OpIndex> d2h_idx(job->replicas.size(), gpu::kNoOp);
  if (options_.strategy == Strategy::kPerformance && n_gpus > 1) {
    // Peer-to-peer merge into the master GPU, then one D2H (Section 4.1).
    const uint64_t bytes =
        static_cast<uint64_t>(graph_->num_vertices()) * wa_b;
    for (int g = 1; g < n_gpus; ++g) {
      // Lands on the master GPU's copy engine.
      RecordCopy(gpu::OpKind::kP2P, 0, bytes, tm.p2p_bandwidth, job->job_id);
    }
    const gpu::OpIndex idx =
        RecordCopy(gpu::OpKind::kD2H, 0, bytes, tm.c1, job->job_id);
    std::fill(d2h_idx.begin(), d2h_idx.begin() + n_gpus, idx);
  } else {
    for (int g = 0; g < n_gpus; ++g) {
      const JobReplica& replica = job->replicas[static_cast<size_t>(g)];
      const uint64_t bytes =
          static_cast<uint64_t>(replica.wa_end - replica.wa_begin) * wa_b;
      d2h_idx[static_cast<size_t>(g)] =
          RecordCopy(gpu::OpKind::kD2H, g, bytes, tm.c1, job->job_id);
    }
  }

  // Execution: fold every replica into the host arrays.
  for (size_t r = 0; r < job->replicas.size(); ++r) {
    AbsorbReplicaWa(kernel, job->replicas[r]);
    if (race_ != nullptr) {
      NoteWaReplica(*job, static_cast<int>(r), race_->HostLane(),
                    analysis::AccessClass::kPlainRead, d2h_idx[r]);
    }
  }
  if (race_ != nullptr) race_->BarrierRelease();
}

void GtsEngine::SyncJobLevel(JobExec* job) {
  const TimeModel& tm = machine_.time_model;
  const int n_gpus = machine_.num_gpus;
  GtsKernel* kernel = job->kernel;
  std::vector<JobReplica>& replicas = job->replicas;
  // Local nextPIDSets to the host (the host replica's is there already).
  job->frontier->Clear();
  for (size_t r = 0; r < replicas.size(); ++r) {
    const PidSet& local_next = *replicas[r].local_next;
    if (static_cast<int>(r) < n_gpus) {
      RecordCopy(gpu::OpKind::kD2H, static_cast<int>(r),
                 local_next.ByteSize(), tm.c1, job->job_id);
    }
    job->frontier->Union(local_next);
  }
  if (replicas.size() <= 1) return;

  // Replicated traversal WA must propagate across replicas between
  // levels. Only this level's updated entries travel: (vid, value) pairs
  // each way, not the whole vector (the paper notes the WA synchronized
  // per level "is usually negligible", Section 5.2).
  uint64_t total_updates = 0;
  for (const JobReplica& replica : replicas) {
    for (const WorkStats& w : replica.stream_work) {
      total_updates += w.wa_updates;
    }
  }
  const uint64_t level_updates = total_updates - job->prev_updates;
  job->prev_updates = total_updates;
  const uint64_t delta_bytes =
      level_updates * (kernel->wa_bytes_per_vertex() + 8);
  std::vector<gpu::OpIndex> delta_d2h(replicas.size(), gpu::kNoOp);
  std::vector<gpu::OpIndex> delta_h2d(replicas.size(), gpu::kNoOp);
  for (int g = 0; g < n_gpus; ++g) {
    delta_d2h[static_cast<size_t>(g)] = RecordCopy(
        gpu::OpKind::kD2H, g, delta_bytes / n_gpus, tm.c1, job->job_id);
    delta_h2d[static_cast<size_t>(g)] = RecordCopy(
        gpu::OpKind::kH2DChunk, g, delta_bytes, tm.c1, job->job_id);
  }
  // Execution: fold every replica into the host arrays, then refresh
  // every replica from the merged state (equivalent to applying the
  // update lists).
  const int host = race_ != nullptr ? race_->HostLane() : 0;
  for (size_t r = 0; r < replicas.size(); ++r) {
    AbsorbReplicaWa(kernel, replicas[r]);
    NoteWaReplica(*job, static_cast<int>(r), host,
                  analysis::AccessClass::kPlainRead, delta_d2h[r]);
  }
  for (size_t r = 0; r < replicas.size(); ++r) {
    InitReplicaWa(kernel, replicas[r]);
    NoteWaReplica(*job, static_cast<int>(r), host,
                  analysis::AccessClass::kPlainWrite, delta_h2d[r]);
  }
}

void GtsEngine::FinishJobInEpoch(JobExec* job) {
  if (job->status.ok()) {
    DownloadWaJob(job);
    if (job->traversal()) {
      job->metrics.levels = job->level;
    } else {
      recorder_.AddBarrier(machine_.time_model.sync_overhead *
                           machine_.num_gpus);
      job->metrics.levels = 1;
    }
    for (const JobReplica& replica : job->replicas) {
      for (const WorkStats& w : replica.stream_work) job->metrics.work += w;
    }
    if (job->replicas.size() > static_cast<size_t>(machine_.num_gpus)) {
      job->metrics.cpu_lane_work = job->replicas.back().stream_work;
    }
    // Storage/io counters are epoch-cumulative up to this job's
    // completion (reads are shared; per-job attribution of a merged read
    // would be arbitrary).
    job->metrics.io = store_->stats();
    job->metrics.io_queue = io_->stats();
  }
  job->finished = true;
  job->replicas.clear();
}

}  // namespace gts
