// Micro-level parallel processing (Section 6.2 / Appendix E): warp-cycle
// and memory-transaction accounting per strategy, the page walk's
// activity contract, and KernelContext's serial WA operations.
#include "core/micro.h"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "graph/csr_graph.h"
#include "storage/page_builder.h"

namespace gts {
namespace {

/// Builds a single page containing vertices with the given degrees (each
/// vertex's neighbors are vertex 0, arbitrarily).
PagedGraph PageWithDegrees(const std::vector<uint32_t>& degrees,
                           uint64_t page_size = 64 * kKiB) {
  EdgeList list;
  VertexId n = degrees.size();
  list.set_num_vertices(n);
  for (VertexId v = 0; v < n; ++v) {
    for (uint32_t j = 0; j < degrees[v]; ++j) {
      list.Add(v, j % n);
    }
  }
  CsrGraph csr = CsrGraph::FromEdgeList(list);
  return std::move(BuildPagedGraph(csr, PageConfig{2, 2, page_size}))
      .ValueOrDie();
}

WorkStats RunWith(const PagedGraph& g, MicroStrategy micro,
                  bool all_active = true) {
  PageView page = g.view(g.small_page_ids().at(0));
  uint64_t edges_seen = 0;
  WorkStats stats = ProcessSpPage(
      page, micro, page.slot_vid(0),
      [&](VertexId vid, uint32_t) { return all_active || (vid % 2 == 0); },
      [&](VertexId, uint32_t, uint32_t, const RecordId&) { ++edges_seen; });
  EXPECT_EQ(stats.edges_processed, edges_seen);
  return stats;
}

TEST(MicroTest, ActivityRunsOncePerSlotBeforeAnyEdge) {
  PagedGraph g = PageWithDegrees({3, 0, 5, 2, 7});
  PageView page = g.view(g.small_page_ids().at(0));
  std::vector<int> active_calls(page.num_slots(), 0);
  bool edge_seen = false;
  bool active_after_edge = false;
  WorkStats stats = ProcessSpPage(
      page, MicroStrategy::kHybrid, page.slot_vid(0),
      [&](VertexId, uint32_t s) {
        ++active_calls[s];
        active_after_edge |= edge_seen;
        return true;
      },
      [&](VertexId, uint32_t, uint32_t, const RecordId&) { edge_seen = true; });
  EXPECT_EQ(active_calls, std::vector<int>(page.num_slots(), 1));
  EXPECT_FALSE(active_after_edge);
  EXPECT_EQ(stats.edges_processed, 17u);
}

TEST(MicroTest, SlotWalkSeesTheSameEdgesAsEdgeWalk) {
  PagedGraph g = PageWithDegrees({4, 9, 0, 1, 33});
  PageView page = g.view(g.small_page_ids().at(0));
  const auto odd = [](VertexId vid, uint32_t) { return vid % 2 == 1; };
  std::vector<std::pair<uint32_t, RecordId>> by_edge;
  std::vector<std::pair<uint32_t, RecordId>> by_slot;
  const WorkStats a = ProcessSpPage(
      page, MicroStrategy::kEdgeCentric, page.slot_vid(0), odd,
      [&](VertexId, uint32_t s, uint32_t, const RecordId& rid) {
        by_edge.emplace_back(s, rid);
      });
  const WorkStats b = ProcessSpPageSlots(
      page, MicroStrategy::kEdgeCentric, page.slot_vid(0), odd,
      [&](VertexId, uint32_t s, const AdjList& list) {
        for (uint32_t j = 0; j < list.size(); ++j) {
          by_slot.emplace_back(s, list[j]);
        }
      });
  EXPECT_EQ(by_edge, by_slot);
  EXPECT_EQ(by_edge.size(), 9u + 1u);
  EXPECT_EQ(a.edges_processed, b.edges_processed);
  EXPECT_EQ(a.warp_cycles, b.warp_cycles);
  EXPECT_EQ(a.mem_transactions, b.mem_transactions);
  EXPECT_EQ(a.active_vertices, b.active_vertices);
}

// ---- KernelContext::serial: plain WA operations match the atomic ones --

/// A CAS outcome: success flag plus what `expected` held afterwards.
template <typename T>
struct CasResult {
  bool ok = false;
  T expected{};
};

template <typename T>
CasResult<T> Cas(const KernelContext& ctx, T& word, T expected, T desired,
                 bool weak) {
  CasResult<T> r;
  r.expected = expected;
  r.ok = weak ? ctx.WaCasWeak(word, r.expected, desired)
              : ctx.WaCas(word, r.expected, desired);
  return r;
}

template <typename T>
bool SameBits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <typename T>
bool SameBits(const CasResult<T>& a, const CasResult<T>& b) {
  return a.ok == b.ok && SameBits(a.expected, b.expected);
}

/// Runs `op(ctx, word)` on a copy of `init` with the serial mark unset and
/// set; the resulting words and return values must match bit for bit.
template <typename T, typename Op>
void ExpectSerialMatchesAtomic(T init, Op op) {
  KernelContext atomic_ctx;
  KernelContext serial_ctx;
  serial_ctx.serial = true;
  T atomic_word = init;
  T serial_word = init;
  const auto atomic_ret = op(atomic_ctx, atomic_word);
  const auto serial_ret = op(serial_ctx, serial_word);
  EXPECT_TRUE(SameBits(atomic_word, serial_word));
  EXPECT_TRUE(SameBits(atomic_ret, serial_ret));
}

TEST(KernelContextTest, SerialWaOperationsMatchAtomicOnes) {
  for (const bool weak : {false, true}) {
    SCOPED_TRACE(weak ? "weak" : "strong");
    // Success and failure on a 16-bit BFS level word.
    ExpectSerialMatchesAtomic<uint16_t>(0xFFFF, [&](auto& ctx, auto& w) {
      return Cas<uint16_t>(ctx, w, 0xFFFF, 3, weak);
    });
    ExpectSerialMatchesAtomic<uint16_t>(2, [&](auto& ctx, auto& w) {
      return Cas<uint16_t>(ctx, w, 0xFFFF, 3, weak);
    });
    // Success and failure on a 64-bit packed entry (SSSP, BC, WCC).
    ExpectSerialMatchesAtomic<uint64_t>(
        0x0123456789ABCDEF, [&](auto& ctx, auto& w) {
          return Cas<uint64_t>(ctx, w, 0x0123456789ABCDEF, 42, weak);
        });
    ExpectSerialMatchesAtomic<uint64_t>(7, [&](auto& ctx, auto& w) {
      return Cas<uint64_t>(ctx, w, 8, 42, weak);
    });
    // Floats compare object representations: -0.0 is not +0.0.
    ExpectSerialMatchesAtomic<float>(-0.0f, [&](auto& ctx, auto& w) {
      return Cas<float>(ctx, w, 0.0f, 1.0f, weak);
    });
  }
  ExpectSerialMatchesAtomic<uint32_t>(41, [](auto& ctx, auto& w) {
    return ctx.WaFetchAdd(w, uint32_t{1});
  });
  ExpectSerialMatchesAtomic<uint32_t>(0xFFFFFFFF, [](auto& ctx, auto& w) {
    return ctx.WaFetchAdd(w, uint32_t{2});  // wraps
  });
  ExpectSerialMatchesAtomic<float>(0.1f, [](auto& ctx, auto& w) {
    return ctx.WaFetchAdd(w, 0.2f);
  });
  ExpectSerialMatchesAtomic<float>(1e8f, [](auto& ctx, auto& w) {
    return ctx.WaFetchAdd(w, 3.0f);  // rounds
  });
  ExpectSerialMatchesAtomic<uint64_t>(0x00F0, [](auto& ctx, auto& w) {
    return ctx.WaFetchOr(w, uint64_t{0x0F0F});
  });
}

TEST(MicroTest, EdgeCentricCountsCoalescedTransactions) {
  PagedGraph g = PageWithDegrees({10, 10, 10, 10});
  WorkStats stats = RunWith(g, MicroStrategy::kEdgeCentric);
  EXPECT_EQ(stats.scanned_slots, 4u);
  EXPECT_EQ(stats.active_vertices, 4u);
  EXPECT_EQ(stats.edges_processed, 40u);
  EXPECT_EQ(stats.mem_transactions, 40u);
  // 1 scan cycle (4 slots < 32) + 4 x ceil(10/32).
  EXPECT_EQ(stats.warp_cycles, 1u + 4u);
}

TEST(MicroTest, VertexCentricPaysDivergenceAndNonCoalescing) {
  PagedGraph g = PageWithDegrees({100, 1, 1, 1});
  WorkStats edge = RunWith(g, MicroStrategy::kEdgeCentric);
  WorkStats vertex = RunWith(g, MicroStrategy::kVertexCentric);
  EXPECT_EQ(vertex.mem_transactions, kNonCoalescedFactor * 103u);
  // One warp of 4 slots; its slowest lane has 100 edges.
  EXPECT_EQ(vertex.warp_cycles, 1u + kDivergencePenalty * 100u);
  EXPECT_GT(vertex.warp_cycles + vertex.mem_transactions,
            edge.warp_cycles + edge.mem_transactions);
}

TEST(MicroTest, InactiveVerticesCostOnlyScan) {
  PagedGraph g = PageWithDegrees({16, 16, 16, 16});
  WorkStats all = RunWith(g, MicroStrategy::kEdgeCentric, true);
  WorkStats half = RunWith(g, MicroStrategy::kEdgeCentric, false);
  EXPECT_LT(half.edges_processed, all.edges_processed);
  EXPECT_LT(half.warp_cycles, all.warp_cycles);
  EXPECT_EQ(half.scanned_slots, all.scanned_slots);
}

TEST(MicroTest, HybridNeverWorseThanBothPredictors) {
  for (uint32_t uniform_degree : {1u, 4u, 32u, 200u}) {
    std::vector<uint32_t> degrees(40, uniform_degree);
    degrees[7] = 500;  // one hub for skew
    PagedGraph g = PageWithDegrees(degrees);
    WorkStats edge = RunWith(g, MicroStrategy::kEdgeCentric);
    WorkStats vertex = RunWith(g, MicroStrategy::kVertexCentric);
    WorkStats hybrid = RunWith(g, MicroStrategy::kHybrid);
    const auto metric = [](const WorkStats& s) {
      return s.warp_cycles + kHybridMemWeight * s.mem_transactions;
    };
    EXPECT_LE(metric(hybrid), std::min(metric(edge), metric(vertex)))
        << "degree " << uniform_degree;
    // All strategies do the same real work.
    EXPECT_EQ(hybrid.edges_processed, edge.edges_processed);
  }
}

TEST(MicroTest, LpPageAccounting) {
  // One vertex with 5000 neighbors in 64 KiB pages -> still one LP chunk.
  EdgeList list;
  list.set_num_vertices(5001);
  for (uint32_t j = 0; j < 5000; ++j) list.Add(0, j + 1);
  CsrGraph csr = CsrGraph::FromEdgeList(list);
  PagedGraph g = std::move(BuildPagedGraph(csr, PageConfig{2, 2, 1 * kKiB}))
                     .ValueOrDie();
  ASSERT_GT(g.num_large_pages(), 1u);
  PageView lp = g.view(g.large_page_ids().at(0));
  uint64_t edges = 0;
  WorkStats active = ProcessLpPage(
      lp, 0, true, [&](VertexId, uint32_t, const RecordId&) { ++edges; });
  EXPECT_EQ(active.edges_processed, edges);
  EXPECT_EQ(active.mem_transactions, edges);
  EXPECT_EQ(active.warp_cycles, 1 + (edges + 31) / 32);

  WorkStats inactive = ProcessLpPage(
      lp, 0, false, [&](VertexId, uint32_t, const RecordId&) { ++edges; });
  EXPECT_EQ(inactive.edges_processed, 0u);
  EXPECT_EQ(inactive.warp_cycles, 1u);
}

TEST(MicroTest, DenserPagesWidenTheVertexCentricGap) {
  // The Figure 14 trend: vertex-centric falls further behind as density
  // grows (time metric = cycles + mem transactions).
  double prev_ratio = 0.0;
  for (uint32_t degree : {4u, 8u, 16u, 32u}) {
    std::vector<uint32_t> degrees(64, degree);
    for (size_t i = 0; i < degrees.size(); i += 8) degrees[i] = degree * 12;
    PagedGraph g = PageWithDegrees(degrees);
    WorkStats edge = RunWith(g, MicroStrategy::kEdgeCentric);
    WorkStats vertex = RunWith(g, MicroStrategy::kVertexCentric);
    const double ratio =
        static_cast<double>(vertex.warp_cycles + vertex.mem_transactions) /
        static_cast<double>(edge.warp_cycles + edge.mem_transactions);
    EXPECT_GT(ratio, 1.0) << "degree " << degree;
    EXPECT_GE(ratio, prev_ratio * 0.9) << "degree " << degree;
    prev_ratio = ratio;
  }
}

}  // namespace
}  // namespace gts
