// nextPIDSet: the page-granular frontier of BFS-like algorithms
// (Section 3.3). A bit per page; each GPU keeps a local copy that the host
// merges after every level (Algorithm 1 lines 29-30).
#ifndef GTS_CORE_FRONTIER_H_
#define GTS_CORE_FRONTIER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace gts {

/// Fixed-size concurrent bitset over page ids.
class PidSet {
 public:
  PidSet() = default;
  explicit PidSet(size_t num_pages)
      : num_pages_(num_pages), words_((num_pages + 63) / 64) {
    for (auto& w : words_) w.store(0, std::memory_order_relaxed);
  }

  PidSet(const PidSet&) = delete;
  PidSet& operator=(const PidSet&) = delete;

  size_t num_pages() const { return num_pages_; }

  void Set(PageId pid) { Set(pid, 1); }

  /// Sets the bit and, when counting, credits `weight` activations to the
  /// page. Traversal kernels pass the activated vertex's out-degree so the
  /// per-page count measures active *edges* (the work a page actually
  /// holds), not active vertices; a zero weight still sets the bit.
  void Set(PageId pid, uint32_t weight) {
    words_[pid >> 6].fetch_or(uint64_t{1} << (pid & 63),
                              std::memory_order_relaxed);
    if (!counts_.empty()) {
      if (weight != 0) {
        counts_[pid].fetch_add(weight, std::memory_order_relaxed);
      }
      // Every counting Set is one vertex-activation event (even with a
      // zero edge weight: a sink vertex's record must still be fetched).
      vtx_counts_[pid].fetch_add(1, std::memory_order_relaxed);
    }
  }

  bool Test(PageId pid) const {
    return (words_[pid >> 6].load(std::memory_order_relaxed) >>
            (pid & 63)) & 1;
  }

  void Clear() {
    for (auto& w : words_) w.store(0, std::memory_order_relaxed);
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    for (auto& c : vtx_counts_) c.store(0, std::memory_order_relaxed);
  }

  bool Empty() const {
    for (const auto& w : words_) {
      if (w.load(std::memory_order_relaxed) != 0) return false;
    }
    return true;
  }

  /// Merges `other` into this set (the host's union at line 30). When
  /// both sets count activations, the per-page counts sum.
  void Union(const PidSet& other) {
    for (size_t i = 0; i < words_.size(); ++i) {
      words_[i].fetch_or(other.words_[i].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    }
    if (!counts_.empty() && !other.counts_.empty()) {
      for (size_t i = 0; i < counts_.size(); ++i) {
        const uint32_t add =
            other.counts_[i].load(std::memory_order_relaxed);
        if (add != 0) counts_[i].fetch_add(add, std::memory_order_relaxed);
        const uint32_t vadd =
            other.vtx_counts_[i].load(std::memory_order_relaxed);
        if (vadd != 0) {
          vtx_counts_[i].fetch_add(vadd, std::memory_order_relaxed);
        }
      }
    }
  }

  /// Page ids with the bit set, ascending.
  std::vector<PageId> ToVector() const {
    std::vector<PageId> out;
    for (PageId pid = 0; pid < num_pages_; ++pid) {
      if (Test(pid)) out.push_back(pid);
    }
    return out;
  }

  size_t Count() const {
    size_t n = 0;
    for (PageId pid = 0; pid < num_pages_; ++pid) n += Test(pid);
    return n;
  }

  /// Bytes a device-resident copy occupies (for sync-cost accounting).
  uint64_t ByteSize() const { return words_.size() * sizeof(uint64_t); }

  /// Opt-in per-page activation counting: afterwards every Set(pid, w)
  /// also adds `w` to a per-page counter. Kernels pass the activated
  /// vertex's out-degree as the weight, so a traversal level knows how
  /// many active *edges* the frontier put in each page -- the
  /// frontier-density order's sort key, and zero for the pages
  /// dispatch.skip_edgeless_pages skips. Off by default --
  /// Set() stays a single fetch_or on the hot path, and counts never
  /// affect membership.
  void EnableCounting() {
    if (counts_.empty() && num_pages_ > 0) {
      counts_ = std::vector<std::atomic<uint32_t>>(num_pages_);
      for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
      vtx_counts_ = std::vector<std::atomic<uint32_t>>(num_pages_);
      for (auto& c : vtx_counts_) c.store(0, std::memory_order_relaxed);
    }
  }
  bool counting() const { return !counts_.empty(); }
  /// Activations recorded for `pid` since the last Clear() (0 when
  /// counting is disabled).
  uint32_t CountOf(PageId pid) const {
    return counts_.empty() ? 0
                           : counts_[pid].load(std::memory_order_relaxed);
  }
  /// Vertex-activation events recorded for `pid` (one per counting Set,
  /// degree-independent). Direct transfers price their cache-line
  /// fetches from this: each activated vertex costs one
  /// adjacency-list lookup regardless of degree. Re-relaxations (SSSP)
  /// count again -- an upper bound, which only biases `auto` toward the
  /// safe page-stream side.
  uint32_t VertexCountOf(PageId pid) const {
    return vtx_counts_.empty()
               ? 0
               : vtx_counts_[pid].load(std::memory_order_relaxed);
  }

 private:
  size_t num_pages_ = 0;
  std::vector<std::atomic<uint64_t>> words_;
  std::vector<std::atomic<uint32_t>> counts_;      // empty unless counting
  std::vector<std::atomic<uint32_t>> vtx_counts_;  // empty unless counting
};

}  // namespace gts

#endif  // GTS_CORE_FRONTIER_H_
