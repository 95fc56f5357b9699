#include "ingest/delta_store.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "common/logging.h"

namespace gts {
namespace ingest {

namespace {

/// Index of the first entry equal to `rid`, or list.size() if absent.
uint32_t Find(const AdjList& list, const RecordId& rid) {
  uint32_t j = 0;
  while (j < list.size() && !(list[j] == rid)) ++j;
  return j;
}

/// Applies one delta to page bytes in place. A remove of an absent
/// neighbor is a no-op.
void ApplyDelta(uint8_t* bytes, const PageConfig& config,
                const PageDelta& delta) {
  switch (delta.op) {
    case PageDelta::Op::kInsert:
      AppendEntryInPlace(bytes, config, delta.slot, delta.neighbor);
      break;
    case PageDelta::Op::kRemove: {
      const AdjList list = PageView(bytes, config).adj_list(delta.slot);
      const uint32_t j = Find(list, delta.neighbor);
      if (j < list.size()) EraseEntryInPlace(bytes, config, delta.slot, j);
      break;
    }
    case PageDelta::Op::kSetLpTotal:
      reinterpret_cast<PageHeader*>(bytes)->lp_total_degree = delta.lp_total;
      break;
  }
}

/// Applies `chain` in order to canonical page bytes: the result is the
/// page PageBuilder would write for the updated content.
void ApplyChain(uint8_t* bytes, const PageConfig& config,
                const std::vector<PageDelta>& chain) {
  GTS_DCHECK(HasWriterLayout(bytes, config));
  for (const PageDelta& delta : chain) ApplyDelta(bytes, config, delta);
}

uint64_t LpChunkCapacity(const PageConfig& config) {
  const uint64_t usable = config.page_size > kPageHeaderBytes
                              ? config.page_size - kPageHeaderBytes
                              : 0;
  return usable > (sizeof(uint32_t) + kSlotBytes)
             ? (usable - sizeof(uint32_t) - kSlotBytes) / config.entry_bytes()
             : 0;
}

}  // namespace

DeltaStore::DeltaStore(const PagedGraph* graph)
    : graph_(graph), lp_chunk_capacity_(LpChunkCapacity(graph->config())) {}

const uint8_t* DeltaStore::InstalledBytes(PageId pid) const {
  auto it = states_.find(pid);
  if (it != states_.end() && !it->second.image.empty()) {
    return it->second.image.data();
  }
  return graph_->page_bytes(pid).data();
}

void DeltaStore::CurrentBytes(PageId pid, uint8_t* out) const {
  const PageConfig& config = graph_->config();
  std::memcpy(out, InstalledBytes(pid), config.page_size);
  auto it = states_.find(pid);
  if (it != states_.end()) ApplyChain(out, config, it->second.chain);
}

void DeltaStore::ResolveFlushes(const std::vector<GutterBank::Flush>& flushes,
                                std::vector<PageId>* changed) {
  analysis::sync::Lock lock(mu_);
  const PageConfig& config = graph_->config();

  // Per-publish view of each touched page: a copy of its current bytes,
  // then mutated alongside every delta we emit so later updates in the
  // same publish see earlier ones.
  std::unordered_map<PageId, std::vector<uint8_t>> views;
  std::unordered_set<PageId> grew;
  std::unordered_set<VertexId> touched_lp;

  auto view = [&](PageId pid) -> uint8_t* {
    auto [it, fresh] = views.try_emplace(pid);
    if (fresh) {
      it->second.resize(config.page_size);
      CurrentBytes(pid, it->second.data());
    }
    return it->second.data();
  };
  auto page = [&](PageId pid) { return PageView(view(pid), config); };

  auto emit = [&](PageId pid, const PageDelta& delta) {
    ApplyDelta(view(pid), config, delta);
    states_[pid].chain.push_back(delta);
    grew.insert(pid);
  };

  for (const GutterBank::Flush& flush : flushes) {
    for (const EdgeUpdate& update : flush.updates) {
      const RecordId loc = graph_->VertexLocation(update.src);
      const RecordId neighbor = graph_->VertexLocation(update.dst);
      // An SP vertex's record is one slot of its page. An LP vertex's
      // adjacency spans a run of consecutive page ids starting at
      // loc.pid (slot 0 each): inserts go to the first chunk with
      // headroom, deletes to the first chunk holding the neighbor.
      const bool small = graph_->kind(loc.pid) == PageKind::kSmall;
      const uint32_t run =
          small ? 1 : graph_->rvt().entry(loc.pid).lp_more + 1;
      PageId target = kInvalidPageId;
      for (uint32_t k = 0; k < run && target == kInvalidPageId; ++k) {
        const PageView chunk = page(loc.pid + k);
        const AdjList list = chunk.adj_list(loc.slot);
        bool hit = false;
        if (update.remove) {
          hit = Find(list, neighbor) != list.size();
        } else if (small) {  // header + records + slots + the new entry
          hit = chunk.records_end() + uint64_t{chunk.num_slots()} * kSlotBytes +
                    config.entry_bytes() <=
                config.page_size;
        } else {
          hit = list.size() < lp_chunk_capacity_;
        }
        if (hit) target = loc.pid + k;
      }
      if (target == kInvalidPageId) {
        // A delete of an absent edge is dropped; an insert with no room
        // is rejected (page splits are future work).
        ++(update.remove ? stats_.deletes_dropped : stats_.updates_rejected);
        continue;
      }
      emit(target, PageDelta{update.remove ? PageDelta::Op::kRemove
                                           : PageDelta::Op::kInsert,
                             loc.slot, neighbor, 0});
      degree_delta_[update.src] += update.remove ? -1 : 1;
      edge_count_delta_ += update.remove ? -1 : 1;
      ++stats_.updates_applied;
      if (!small) touched_lp.insert(update.src);
    }
  }

  // Keep every LP header of a touched run in sync with the vertex's new
  // total degree, exactly as a fresh build would stamp it.
  for (VertexId v : touched_lp) {
    const PageId first = graph_->VertexLocation(v).pid;
    const uint32_t run = graph_->rvt().entry(first).lp_more + 1;
    uint64_t total = 0;
    for (uint32_t k = 0; k < run; ++k) {
      total += page(first + k).adjlist_size(0);
    }
    for (uint32_t k = 0; k < run; ++k) {
      if (page(first + k).header().lp_total_degree != total) {
        emit(first + k,
             PageDelta{PageDelta::Op::kSetLpTotal, 0, RecordId{},
                       static_cast<uint32_t>(total)});
      }
    }
  }

  std::vector<PageId> grown(grew.begin(), grew.end());
  std::sort(grown.begin(), grown.end());
  for (PageId pid : grown) {
    ++states_[pid].version;
    if (changed != nullptr) changed->push_back(pid);
  }
}

bool DeltaStore::Overlay(PageId pid, uint8_t* bytes) {
  analysis::sync::Lock lock(mu_);
  auto it = states_.find(pid);
  if (it == states_.end() || it->second.chain.empty()) return false;
  ApplyChain(bytes, graph_->config(), it->second.chain);
  ++stats_.overlay_hits;
  return true;
}

bool DeltaStore::HasDeltas(PageId pid) const {
  analysis::sync::Lock lock(mu_);
  auto it = states_.find(pid);
  return it != states_.end() && !it->second.chain.empty();
}

uint64_t DeltaStore::PageVersion(PageId pid) const {
  analysis::sync::Lock lock(mu_);
  auto it = states_.find(pid);
  return it == states_.end() ? 0 : it->second.version;
}

std::vector<PageId> DeltaStore::CompactionCandidates(
    uint32_t threshold) const {
  std::vector<std::pair<size_t, PageId>> found;  // (chain length, page)
  {
    analysis::sync::Lock lock(mu_);
    for (const auto& [pid, state] : states_) {
      if (state.chain.size() >= std::max<size_t>(threshold, 1)) {
        found.emplace_back(state.chain.size(), pid);
      }
    }
  }
  std::stable_sort(found.begin(), found.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::vector<PageId> pids;
  pids.reserve(found.size());
  for (const auto& entry : found) pids.push_back(entry.second);
  return pids;
}

std::optional<DeltaStore::Compaction> DeltaStore::Build(PageId pid) const {
  const PageConfig& config = graph_->config();
  Compaction compaction;
  std::vector<PageDelta> chain;
  {
    analysis::sync::Lock lock(mu_);
    auto it = states_.find(pid);
    if (it == states_.end() || it->second.chain.empty()) return std::nullopt;
    const uint8_t* bytes = InstalledBytes(pid);
    compaction.image.assign(bytes, bytes + config.page_size);
    chain = it->second.chain;
    compaction.installs_at_snapshot = it->second.installs;
  }

  // The fold itself runs outside the lock: producers and overlays proceed
  // while we apply `chain` to the snapshot.
  ApplyChain(compaction.image.data(), config, chain);
  compaction.pid = pid;
  compaction.consumed = chain.size();
  return compaction;
}

const uint8_t* DeltaStore::Install(Compaction&& compaction) {
  analysis::sync::Lock lock(mu_);
  auto it = states_.find(compaction.pid);
  if (it == states_.end()) return nullptr;
  PageState& state = it->second;
  if (state.installs != compaction.installs_at_snapshot) {
    return nullptr;  // a newer install landed since the rebuild's snapshot
  }
  GTS_DCHECK(compaction.consumed <= state.chain.size());
  state.image = std::move(compaction.image);
  state.chain.erase(state.chain.begin(),
                    state.chain.begin() +
                        static_cast<ptrdiff_t>(compaction.consumed));
  ++state.installs;
  ++state.version;
  ++stats_.compactions;
  return state.image.data();
}

size_t DeltaStore::MaxChainLength() const {
  analysis::sync::Lock lock(mu_);
  size_t longest = 0;
  for (const auto& [pid, state] : states_) {
    longest = std::max(longest, state.chain.size());
  }
  return longest;
}

void DeltaStore::ApplyDegreeDeltas(std::vector<uint32_t>* out_degrees) const {
  analysis::sync::Lock lock(mu_);
  for (const auto& [v, delta] : degree_delta_) {
    if (v >= out_degrees->size()) continue;
    uint32_t& degree = (*out_degrees)[v];
    if (delta < 0 && static_cast<uint64_t>(-delta) > degree) {
      degree = 0;
    } else {
      degree = static_cast<uint32_t>(static_cast<int64_t>(degree) + delta);
    }
  }
}

int64_t DeltaStore::EdgeCountDelta() const {
  analysis::sync::Lock lock(mu_);
  return edge_count_delta_;
}

std::vector<VertexId> DeltaStore::CurrentNeighbors(VertexId v) const {
  analysis::sync::Lock lock(mu_);
  const PageConfig& config = graph_->config();
  const RecordId loc = graph_->VertexLocation(v);
  const bool small = graph_->kind(loc.pid) == PageKind::kSmall;
  const uint32_t run = small ? 1 : graph_->rvt().entry(loc.pid).lp_more + 1;

  std::vector<VertexId> neighbors;
  std::vector<uint8_t> bytes(config.page_size);
  for (uint32_t k = 0; k < run; ++k) {
    CurrentBytes(loc.pid + k, bytes.data());
    const AdjList list = PageView(bytes.data(), config).adj_list(loc.slot);
    for (uint32_t j = 0; j < list.size(); ++j) {
      neighbors.push_back(graph_->rvt().ToVid(list[j]));
    }
  }
  return neighbors;
}

IngestStats DeltaStore::SnapshotStats() const {
  analysis::sync::Lock lock(mu_);
  return stats_;
}

}  // namespace ingest
}  // namespace gts
