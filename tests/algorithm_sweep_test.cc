// Property-style sweeps: every GTS algorithm agrees with its reference on
// a grid of graph shapes, seeds and densities (parameterized gtest).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "algorithms/bc.h"
#include "algorithms/bfs.h"
#include "algorithms/pagerank.h"
#include "algorithms/reference.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "core/engine.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "storage/page_builder.h"

namespace gts {
namespace {

// Every field is 8 bytes wide, so the struct has no padding. gtest lists a
// param it cannot print as its raw bytes, and padding left uninitialized made
// the listed test names differ from one build or run to the next.
struct SweepParam {
  int64_t scale;
  double edge_factor;
  uint64_t seed;
  double rmat_a;  // skew knob
};

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "s%d_ef%d_seed%llu_a%d",
                static_cast<int>(info.param.scale),
                static_cast<int>(info.param.edge_factor),
                (unsigned long long)info.param.seed,
                static_cast<int>(info.param.rmat_a * 100));
  return buf;
}

class AlgorithmSweepTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  void SetUp() override {
    RmatParams p;
    p.scale = static_cast<int>(GetParam().scale);
    p.edge_factor = GetParam().edge_factor;
    p.seed = GetParam().seed;
    p.a = GetParam().rmat_a;
    p.b = p.c = (1.0 - p.a) / 3.0;
    edges_ = std::move(GenerateRmat(p)).ValueOrDie();
    csr_ = CsrGraph::FromEdgeList(edges_);
    paged_ =
        std::move(BuildPagedGraph(csr_, PageConfig{2, 2, 1 * kKiB}))
            .ValueOrDie();
    store_ = MakeInMemoryStore(&paged_);
    machine_ = MachineConfig::PaperScaled(1);
    machine_.device_memory = 32 * kMiB;
    source_ = 0;
    for (VertexId v = 0; v < csr_.num_vertices(); ++v) {
      if (csr_.out_degree(v) > csr_.out_degree(source_)) source_ = v;
    }
  }

  EdgeList edges_;
  CsrGraph csr_;
  PagedGraph paged_;
  std::unique_ptr<PageStore> store_;
  MachineConfig machine_;
  VertexId source_ = 0;
};

TEST_P(AlgorithmSweepTest, Bfs) {
  GtsEngine engine(&paged_, store_.get(), machine_, GtsOptions{});
  auto result = RunBfsGts(engine, source_);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto expected = ReferenceBfs(csr_, source_);
  for (VertexId v = 0; v < csr_.num_vertices(); ++v) {
    const uint32_t want =
        expected[v] == kUnreachedLevel ? BfsKernel::kUnvisited : expected[v];
    ASSERT_EQ(result->levels[v], want) << "vertex " << v;
  }
}

TEST_P(AlgorithmSweepTest, Sssp) {
  GtsEngine engine(&paged_, store_.get(), machine_, GtsOptions{});
  auto result = RunSsspGts(engine, source_);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto expected = ReferenceSssp(csr_, source_);
  for (VertexId v = 0; v < csr_.num_vertices(); ++v) {
    if (std::isinf(expected[v])) {
      ASSERT_TRUE(std::isinf(result->distances[v])) << "vertex " << v;
    } else {
      ASSERT_NEAR(result->distances[v], expected[v], 1e-3) << "vertex " << v;
    }
  }
}

TEST_P(AlgorithmSweepTest, PageRank) {
  GtsEngine engine(&paged_, store_.get(), machine_, GtsOptions{});
  auto result = RunPageRankGts(engine, {.iterations = 3});
  ASSERT_TRUE(result.ok()) << result.status();
  const auto expected = ReferencePageRank(csr_, 3);
  for (VertexId v = 0; v < csr_.num_vertices(); ++v) {
    ASSERT_NEAR(result->ranks[v], expected[v], 3e-4 * (1.0 + expected[v]))
        << "vertex " << v;
  }
}

TEST_P(AlgorithmSweepTest, Bc) {
  GtsEngine engine(&paged_, store_.get(), machine_, GtsOptions{});
  auto result = RunBcGts(engine, source_);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto expected = ReferenceBcFromSource(csr_, source_);
  for (VertexId v = 0; v < csr_.num_vertices(); ++v) {
    ASSERT_NEAR(result->deltas[v], expected[v], 1e-2 * (1.0 + expected[v]))
        << "vertex " << v;
  }
}

TEST_P(AlgorithmSweepTest, WccOnSymmetrized) {
  EdgeList sym = SymmetrizeEdges(edges_);
  CsrGraph sym_csr = CsrGraph::FromEdgeList(sym);
  PagedGraph sym_paged =
      std::move(BuildPagedGraph(sym_csr, PageConfig{2, 2, 1 * kKiB}))
          .ValueOrDie();
  auto sym_store = MakeInMemoryStore(&sym_paged);
  GtsEngine engine(&sym_paged, sym_store.get(), machine_, GtsOptions{});
  auto result = RunWccGts(engine);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->labels, ReferenceWcc(sym_csr));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AlgorithmSweepTest,
    ::testing::Values(
        SweepParam{8, 4, 1, 0.57},    // small, sparse, skewed
        SweepParam{9, 16, 2, 0.57},   // denser
        SweepParam{10, 8, 3, 0.45},   // milder skew (web-like)
        SweepParam{10, 2, 4, 0.57},   // very sparse, fragmented
        SweepParam{11, 8, 5, 0.60},   // bigger, strong hubs
        SweepParam{9, 32, 6, 0.30}),  // near-uniform degrees
    ParamName);

}  // namespace
}  // namespace gts
