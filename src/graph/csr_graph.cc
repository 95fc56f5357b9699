#include "graph/csr_graph.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace gts {

namespace {

// Adjacency lists of at least this many entries are radix-sorted; shorter
// ones keep std::sort, which beats clearing and summing the digit counts.
constexpr uint64_t kRadixSortMinLength = 64;
// Widest digit: 2^11 counters per pass stay in L1.
constexpr uint32_t kMaxDigitBits = 11;

/// LSD radix sort of adjacency lists whose ids all fit in `id_bits` bits.
/// One scratch buffer, sized for the longest list, serves every list.
class RadixSorter {
 public:
  RadixSorter(uint32_t id_bits, uint64_t longest)
      : passes_((id_bits + kMaxDigitBits - 1) / kMaxDigitBits),
        digit_bits_(passes_ == 0 ? 0 : (id_bits + passes_ - 1) / passes_),
        scratch_(longest),
        counts_(uint64_t{passes_} << digit_bits_) {}

  /// Sorts `list` (at most `longest` entries) ascending. Each pass is a
  /// stable counting sort on one digit, lowest digit first, so the last
  /// pass leaves the bytes std::sort would.
  void Sort(VertexId* list, uint64_t size) {
    const uint64_t radix = uint64_t{1} << digit_bits_;
    const VertexId mask = radix - 1;
    // One read of the list counts the digits of every pass.
    std::fill(counts_.begin(), counts_.end(), 0);
    for (uint64_t i = 0; i < size; ++i) {
      VertexId id = list[i];
      for (uint32_t p = 0; p < passes_; ++p, id >>= digit_bits_) {
        ++counts_[p * radix + (id & mask)];
      }
    }
    VertexId* from = list;
    VertexId* to = scratch_.data();
    for (uint32_t p = 0; p < passes_; ++p) {
      // Counts become each digit's first output position.
      uint64_t* starts = counts_.data() + p * radix;
      uint64_t next = 0;
      for (uint64_t d = 0; d < radix; ++d) {
        const uint64_t count = starts[d];
        starts[d] = next;
        next += count;
      }
      const uint32_t shift = p * digit_bits_;
      for (uint64_t i = 0; i < size; ++i) {
        to[starts[(from[i] >> shift) & mask]++] = from[i];
      }
      std::swap(from, to);
    }
    if (from != list) std::memcpy(list, from, size * sizeof(VertexId));
  }

 private:
  uint32_t passes_;
  uint32_t digit_bits_;
  std::vector<VertexId> scratch_;
  std::vector<uint64_t> counts_;  // passes_ x 2^digit_bits_
};

}  // namespace

CsrGraph CsrGraph::FromEdgeList(const EdgeList& edges) {
  CsrGraph g;
  const VertexId n = edges.num_vertices();
  // One spare entry: degrees are counted two entries up and summed one
  // entry up, so offsets_[v + 1] holds v's first slot; the scatter then
  // advances it to v's end, the finished CSR's offsets_[v + 1].
  g.offsets_.assign(static_cast<size_t>(n) + 2, 0);
  for (const Edge& e : edges.edges()) {
    g.offsets_[e.src + 2]++;
  }
  uint64_t longest = 0;
  for (VertexId v = 0; v < n; ++v) {
    longest = std::max(longest, g.offsets_[v + 2]);
    g.offsets_[v + 2] += g.offsets_[v + 1];
  }
  g.targets_.resize(edges.num_edges());
  VertexId max_target = 0;
  for (const Edge& e : edges.edges()) {
    g.targets_[g.offsets_[e.src + 1]++] = e.dst;
    max_target = std::max(max_target, e.dst);
  }
  g.offsets_.pop_back();
  // Keep each adjacency list sorted: page records then inherit the paper's
  // "record IDs are consecutive and ordered within a page" property. The
  // digits cover the widest target id, so every list sorts fully.
  RadixSorter radix(static_cast<uint32_t>(std::bit_width(max_target)),
                    longest >= kRadixSortMinLength ? longest : 0);
  for (VertexId v = 0; v < n; ++v) {
    VertexId* begin = g.targets_.data() + g.offsets_[v];
    const uint64_t size = g.offsets_[v + 1] - g.offsets_[v];
    if (size >= kRadixSortMinLength) {
      radix.Sort(begin, size);
    } else {
      std::sort(begin, begin + size);
    }
  }
  return g;
}

EdgeCount CsrGraph::max_degree() const {
  EdgeCount best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    best = std::max(best, out_degree(v));
  }
  return best;
}

}  // namespace gts
