// In-memory Compressed Sparse Row graph. This is the substrate for the CPU
// and in-GPU-memory baselines (Section 7.3/7.4) and the input to the slotted
// page builder.
#ifndef GTS_GRAPH_CSR_GRAPH_H_
#define GTS_GRAPH_CSR_GRAPH_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/edge_list.h"
#include "graph/types.h"

namespace gts {

/// Allocator whose value-less construct default-initialises, so resizing a
/// vector of trivial elements leaves them uninitialised for a caller that
/// overwrites every one.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// CSR target ids: a vector the build fills without zeroing it first.
using VertexIdArray = std::vector<VertexId, DefaultInitAllocator<VertexId>>;

inline bool operator==(const VertexIdArray& a, const std::vector<VertexId>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// Immutable CSR adjacency structure (out-edges).
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds CSR from an edge list. Edges need not be sorted; duplicates are
  /// kept (the generators dedup when requested). Each adjacency list comes
  /// out in ascending order.
  static CsrGraph FromEdgeList(const EdgeList& edges);

  VertexId num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }
  EdgeCount num_edges() const { return targets_.size(); }

  EdgeCount out_degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Neighbors of v, in ascending order.
  std::span<const VertexId> neighbors(VertexId v) const {
    return std::span<const VertexId>(targets_.data() + offsets_[v],
                                     out_degree(v));
  }

  const std::vector<uint64_t>& offsets() const { return offsets_; }
  const VertexIdArray& targets() const { return targets_; }

  /// Maximum out-degree; drives LP creation in the page builder.
  EdgeCount max_degree() const;

  /// Bytes of a paper-style CSR representation (8B offset per vertex plus
  /// one target id per edge) -- used by baseline memory-capacity checks.
  uint64_t EstimateBytes(size_t bytes_per_target = 8) const {
    return offsets_.size() * 8 + targets_.size() * bytes_per_target;
  }

 private:
  // offsets_[v]..offsets_[v+1] indexes targets_; offsets_ has |V|+1 entries.
  std::vector<uint64_t> offsets_;
  VertexIdArray targets_;
};

}  // namespace gts

#endif  // GTS_GRAPH_CSR_GRAPH_H_
