#include "ingest/edge_stream.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "storage/slotted_page.h"

namespace gts {
namespace ingest {

namespace {

/// Serialized delta-record layout, little-endian:
///   [pid u32][count u32] then per update [src u64][dst u64][flags u8].
constexpr size_t kRecordHeaderBytes = 8;
constexpr size_t kUpdateBytes = 17;

}  // namespace

EdgeStream::EdgeStream(Env env)
    : env_(std::move(env)),
      gutters_(env_.graph->num_pages(), env_.options.gutter_capacity),
      delta_(env_.graph) {
  GTS_CHECK(env_.graph != nullptr);
  delta_cursors_.assign(static_cast<size_t>(std::max(env_.num_devices, 1)),
                        0);
  if (env_.delta_region_base) {
    for (size_t d = 0; d < delta_cursors_.size(); ++d) {
      delta_cursors_[d] = env_.delta_region_base(static_cast<int>(d));
    }
  }
}

Status EdgeStream::Append(const UpdateBatch& batch) {
  const VertexId n = env_.graph->num_vertices();
  for (const EdgeUpdate& update : batch) {
    if (update.src >= n || update.dst >= n) {
      return Status::InvalidArgument(
          "ingest: vertex id out of range (the vertex set is fixed at "
          "build time)");
    }
  }
  for (const EdgeUpdate& update : batch) {
    gutters_.Add(env_.graph->PageOfVertex(update.src), update);
  }
  return Status::OK();
}

void EdgeStream::FlushGutters() { gutters_.FlushAll(); }

std::vector<PageId> EdgeStream::Publish() {
  std::vector<PageId> changed;
  {
    analysis::sync::Lock lock(publish_mu_);
    PublishLocked(&changed);
  }
  return FinishChanged(std::move(changed));
}

std::vector<PageId> EdgeStream::Quiesce() {
  gutters_.FlushAll();
  std::vector<PageId> changed;
  {
    analysis::sync::Lock lock(publish_mu_);
    PublishLocked(&changed);
    // Force-compact every remaining chain; afterwards each touched device
    // page holds exactly the bytes a fresh build would produce.
    CompactInline(1, &changed);
  }
  GTS_DCHECK(delta_.MaxChainLength() == 0);
  return FinishChanged(std::move(changed));
}

void EdgeStream::PublishLocked(std::vector<PageId>* changed) {
  const std::vector<GutterBank::Flush> flushes = gutters_.DrainPending();
  if (!flushes.empty()) {
    PersistFlushes(flushes);
    delta_.ResolveFlushes(flushes, changed);
  }
  if (!flushes.empty()) {
    // Compact every chain that crossed the threshold. Only resolving
    // flushes grows a chain, and the previous publish left none at the
    // threshold, so a publish without flushes has nothing to compact.
    CompactInline(env_.options.compact_threshold, changed);
  }
}

void EdgeStream::CompactInline(uint32_t threshold,
                               std::vector<PageId>* changed) {
  // A compaction changes only its own page's chain, so one ordered pass
  // compacts what picking the longest chain after every compaction would.
  for (PageId pid : delta_.CompactionCandidates(threshold)) {
    const uint8_t* image = delta_.Compact(pid);
    if (image == nullptr) continue;
    if (env_.rewrite_page) {
      env_.rewrite_page(pid, image, env_.graph->config().page_size);
    }
    changed->push_back(pid);
  }
}

void EdgeStream::PersistFlushes(
    const std::vector<GutterBank::Flush>& flushes) {
  for (const GutterBank::Flush& flush : flushes) {
    std::vector<uint8_t> record(kRecordHeaderBytes +
                                flush.updates.size() * kUpdateBytes);
    EncodeLE(record.data(), flush.pid, 4);
    EncodeLE(record.data() + 4, flush.updates.size(), 4);
    size_t off = kRecordHeaderBytes;
    for (const EdgeUpdate& update : flush.updates) {
      EncodeLE(record.data() + off, update.src, 8);
      EncodeLE(record.data() + off + 8, update.dst, 8);
      record[off + 16] = update.remove ? 1 : 0;
      off += kUpdateBytes;
    }
    if (env_.write_delta && env_.device_of_page) {
      const int device = env_.device_of_page(flush.pid);
      env_.write_delta(device, delta_cursors_[device], record.data(),
                       record.size());
      delta_cursors_[device] += record.size();
    }
    deltas_flushed_.fetch_add(1, std::memory_order_relaxed);
    delta_bytes_.fetch_add(record.size(), std::memory_order_relaxed);
  }
}

std::vector<PageId> EdgeStream::FinishChanged(std::vector<PageId> changed) {
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  if (!changed.empty()) {
    epoch_.fetch_add(1, std::memory_order_release);
  }
  {
    analysis::sync::Lock lock(harvest_mu_);
    SyncRegistryLocked(SnapshotStats());
  }
  return changed;
}

bool EdgeStream::Overlay(PageId pid, uint8_t* bytes) {
  return delta_.Overlay(pid, bytes);
}

bool EdgeStream::HasDeltas(PageId pid) const { return delta_.HasDeltas(pid); }

uint64_t EdgeStream::PageVersion(PageId pid) const {
  return delta_.PageVersion(pid);
}

void EdgeStream::ApplyDegreeDeltas(std::vector<uint32_t>* out_degrees) const {
  delta_.ApplyDegreeDeltas(out_degrees);
}

int64_t EdgeStream::EdgeCountDelta() const { return delta_.EdgeCountDelta(); }

std::vector<VertexId> EdgeStream::CurrentNeighbors(VertexId v) const {
  return delta_.CurrentNeighbors(v);
}

size_t EdgeStream::MaxChainLength() const { return delta_.MaxChainLength(); }

size_t EdgeStream::BufferedUpdates() const {
  return gutters_.BufferedUpdates();
}

IngestStats EdgeStream::SnapshotStats() const {
  IngestStats stats = delta_.SnapshotStats();
  stats.gutter_flushes = gutters_.flushes();
  stats.deltas_flushed = deltas_flushed_.load(std::memory_order_relaxed);
  stats.delta_bytes = delta_bytes_.load(std::memory_order_relaxed);
  return stats;
}

IngestStats EdgeStream::TakeRunStats() {
  analysis::sync::Lock lock(harvest_mu_);
  const IngestStats current = SnapshotStats();
  IngestStats diff;
  diff.updates_applied = current.updates_applied - harvested_.updates_applied;
  diff.updates_rejected =
      current.updates_rejected - harvested_.updates_rejected;
  diff.deletes_dropped = current.deletes_dropped - harvested_.deletes_dropped;
  diff.gutter_flushes = current.gutter_flushes - harvested_.gutter_flushes;
  diff.deltas_flushed = current.deltas_flushed - harvested_.deltas_flushed;
  diff.delta_bytes = current.delta_bytes - harvested_.delta_bytes;
  diff.compactions = current.compactions - harvested_.compactions;
  diff.overlay_hits = current.overlay_hits - harvested_.overlay_hits;
  harvested_ = current;
  SyncRegistryLocked(current);
  return diff;
}

void EdgeStream::SyncRegistryLocked(const IngestStats& cumulative) {
  if (env_.registry == nullptr) return;
  auto bump = [&](const char* name, uint64_t now, uint64_t before) {
    if (now > before) env_.registry->GetCounter(name).Add(now - before);
  };
  bump("ingest.updates_applied", cumulative.updates_applied,
       registered_.updates_applied);
  bump("ingest.updates_rejected", cumulative.updates_rejected,
       registered_.updates_rejected);
  bump("ingest.deletes_dropped", cumulative.deletes_dropped,
       registered_.deletes_dropped);
  bump("ingest.gutter_flushes", cumulative.gutter_flushes,
       registered_.gutter_flushes);
  bump("ingest.deltas_flushed", cumulative.deltas_flushed,
       registered_.deltas_flushed);
  bump("ingest.delta_bytes", cumulative.delta_bytes,
       registered_.delta_bytes);
  bump("ingest.compactions", cumulative.compactions,
       registered_.compactions);
  bump("ingest.overlay_hits", cumulative.overlay_hits,
       registered_.overlay_hits);
  registered_ = cumulative;
}

}  // namespace ingest
}  // namespace gts
