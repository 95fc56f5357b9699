#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <set>

#include "common/random.h"
#include "graph/csr_graph.h"
#include "graph/datasets.h"
#include "graph/degree.h"
#include "graph/edge_list.h"
#include "graph/graph_io.h"
#include "graph/rmat_generator.h"

namespace gts {
namespace {

TEST(EdgeListTest, SortDedupRemovesDuplicatesAndLoops) {
  EdgeList list(4, {{1, 2}, {0, 1}, {1, 2}, {2, 2}, {3, 0}});
  list.SortAndDedup();
  const std::vector<Edge> expected = {{0, 1}, {1, 2}, {3, 0}};
  EXPECT_EQ(list.edges(), expected);
}

TEST(EdgeListTest, ValidateCatchesOutOfRange) {
  EdgeList ok(3, {{0, 1}, {2, 0}});
  EXPECT_TRUE(ok.Validate().ok());
  EdgeList bad(2, {{0, 5}});
  EXPECT_EQ(bad.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(EdgeListTest, ReversedFlipsEveryEdge) {
  EdgeList list(3, {{0, 1}, {1, 2}});
  EdgeList rev = list.Reversed();
  const std::vector<Edge> expected = {{1, 0}, {2, 1}};
  EXPECT_EQ(rev.edges(), expected);
  EXPECT_EQ(rev.num_vertices(), 3u);
}

TEST(CsrGraphTest, BuildsOffsetsAndSortedNeighbors) {
  EdgeList list(4, {{2, 0}, {0, 3}, {0, 1}, {2, 1}});
  CsrGraph g = CsrGraph::FromEdgeList(list);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(1), 0u);
  EXPECT_EQ(g.out_degree(2), 2u);
  auto n0 = g.neighbors(0);
  EXPECT_EQ(std::vector<VertexId>(n0.begin(), n0.end()),
            (std::vector<VertexId>{1, 3}));
  auto n2 = g.neighbors(2);
  EXPECT_EQ(std::vector<VertexId>(n2.begin(), n2.end()),
            (std::vector<VertexId>{0, 1}));
}

TEST(CsrGraphTest, EmptyGraph) {
  CsrGraph g = CsrGraph::FromEdgeList(EdgeList(0, {}));
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

// FromEdgeList radix-sorts lists of 64 or more entries and std::sorts the
// shorter ones; either way each list must equal a plain std::sort of it.
TEST(CsrGraphTest, LongAndShortListsMatchPerVertexSortReference) {
  // Ids of 1,000 and 2,048 vertices fit one 11-bit digit; 4,096 and
  // 70,000 take two digit passes.
  for (const VertexId n : {1000, 2048, 4096, 70000}) {
    SplitMix64 rng(n);
    std::vector<Edge> edges;
    std::vector<std::vector<VertexId>> expected(n);
    auto add = [&](VertexId src, VertexId dst) {
      edges.push_back({src, dst});
      expected[src].push_back(dst);
    };
    // A hub far past the cutoff, with repeats, a self-loop and the
    // widest id.
    for (int i = 0; i < 3000; ++i) add(0, rng.Next() % n);
    for (int i = 0; i < 200; ++i) add(0, 5);
    add(0, 0);
    add(0, n - 1);
    // Lists at the cutoff and just under it.
    for (int i = 0; i < 64; ++i) add(1, rng.Next() % n);
    for (int i = 0; i < 63; ++i) add(2, rng.Next() % n);
    // Many short lists, each opening with a self-loop; every 7th vertex
    // is isolated.
    for (VertexId v = 3; v < n; ++v) {
      if (v % 7 == 0) continue;
      const uint64_t degree = rng.Next() % 20;
      for (uint64_t i = 0; i < degree; ++i) add(v, i == 0 ? v : rng.Next() % n);
    }
    std::shuffle(edges.begin(), edges.end(), std::mt19937_64(n));

    const CsrGraph g = CsrGraph::FromEdgeList(EdgeList(n, edges));
    std::vector<uint64_t> offsets = {0};
    std::vector<VertexId> targets;
    for (std::vector<VertexId>& list : expected) {
      std::sort(list.begin(), list.end());
      targets.insert(targets.end(), list.begin(), list.end());
      offsets.push_back(targets.size());
    }
    EXPECT_EQ(g.offsets(), offsets) << n << " vertices";
    EXPECT_EQ(g.targets(), targets) << n << " vertices";
  }
  // Every id 0: no digit to sort on.
  const CsrGraph loops = CsrGraph::FromEdgeList(
      EdgeList(1, std::vector<Edge>(100, Edge{0, 0})));
  EXPECT_EQ(loops.targets(), std::vector<VertexId>(100, 0));
}

TEST(RmatTest, GeneratesRequestedSize) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  auto r = GenerateRmat(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_vertices(), 1024u);
  EXPECT_EQ(r->num_edges(), 8192u);
  EXPECT_TRUE(r->Validate().ok());
}

TEST(RmatTest, DeterministicForSameSeed) {
  RmatParams p;
  p.scale = 9;
  auto a = GenerateRmat(p);
  auto b = GenerateRmat(p);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->edges(), b->edges());
}

TEST(RmatTest, DifferentSeedsDiffer) {
  RmatParams p;
  p.scale = 9;
  auto a = GenerateRmat(p);
  p.seed += 1;
  auto b = GenerateRmat(p);
  EXPECT_NE(a->edges(), b->edges());
}

TEST(RmatTest, SkewedDegreeDistribution) {
  RmatParams p;
  p.scale = 12;
  p.edge_factor = 16;
  auto r = GenerateRmat(p);
  ASSERT_TRUE(r.ok());
  CsrGraph g = CsrGraph::FromEdgeList(*r);
  DegreeStats stats = ComputeDegreeStats(g);
  // R-MAT with Graph500 parameters: hubs own a large share of edges.
  EXPECT_GT(stats.top1pct_edge_share, 0.15);
  EXPECT_GT(stats.max_degree, 8 * static_cast<EdgeCount>(stats.mean_degree));
}

TEST(RmatTest, RejectsBadParams) {
  RmatParams p;
  p.scale = 0;
  EXPECT_FALSE(GenerateRmat(p).ok());
  p.scale = 10;
  p.a = 0.0;
  EXPECT_FALSE(GenerateRmat(p).ok());
}

TEST(DegreeTest, HistogramBuckets) {
  // degrees: v0 -> 1, v1 -> 4, v2 -> 0
  EdgeList list(5, {{0, 1}, {1, 0}, {1, 2}, {1, 3}, {1, 4}});
  CsrGraph g = CsrGraph::FromEdgeList(list);
  auto hist = DegreeHistogramLog2(g);
  ASSERT_EQ(hist.size(), 3u);  // buckets for degree 1 and degree 4
  EXPECT_EQ(hist[0], 1u);      // v0
  EXPECT_EQ(hist[2], 1u);      // v1 (degree 4 -> bucket 2)
}

TEST(DatasetsTest, ScaledRmatMatchesPaperScaleRatio) {
  auto r = ScaledRmat(27);
  ASSERT_TRUE(r.ok());
  // RMAT27 has 2^27 vertices; scaled by 1024 -> 2^17.
  EXPECT_EQ(r->num_vertices(), uint64_t{1} << 17);
  EXPECT_EQ(r->num_edges(), (uint64_t{1} << 17) * 16);
}

TEST(DatasetsTest, RealShapesHavePublishedRatios) {
  auto tw = GenerateRealDataset(RealDataset::kTwitter);
  ASSERT_TRUE(tw.ok());
  EXPECT_NEAR(static_cast<double>(tw->num_edges()), 1.43e6, 0.05e6);
  EXPECT_EQ(tw->num_vertices(), 41000u);

  auto uk = GenerateRealDataset(RealDataset::kUk2007);
  ASSERT_TRUE(uk.ok());
  EXPECT_NEAR(static_cast<double>(uk->num_edges()), 3.65e6, 0.1e6);

  auto yh = GenerateRealDataset(RealDataset::kYahooWeb);
  ASSERT_TRUE(yh.ok());
  // Sparse: |E|/|V| < 5 like the real YahooWeb crawl.
  EXPECT_LT(static_cast<double>(yh->num_edges()) /
                static_cast<double>(yh->num_vertices()),
            5.0);
}

TEST(DatasetsTest, TwitterMoreSkewedThanUk2007) {
  auto tw = GenerateRealDataset(RealDataset::kTwitter);
  auto uk = GenerateRealDataset(RealDataset::kUk2007);
  DegreeStats tw_stats = ComputeDegreeStats(CsrGraph::FromEdgeList(*tw));
  DegreeStats uk_stats = ComputeDegreeStats(CsrGraph::FromEdgeList(*uk));
  EXPECT_GT(tw_stats.top1pct_edge_share, uk_stats.top1pct_edge_share);
}

class GraphIoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(path_.c_str());
  }
  // One file per test: ctest runs every test as its own process, several
  // at once, so a shared path would let one test read another's file.
  std::string path_ =
      ::testing::TempDir() + "/gts_graph_io_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".bin";
};

TEST_F(GraphIoTest, BinaryRoundTrip) {
  RmatParams p;
  p.scale = 8;
  EdgeList original = std::move(GenerateRmat(p)).ValueOrDie();
  ASSERT_TRUE(WriteEdgeListBinary(original, path_).ok());
  auto loaded = ReadEdgeListBinary(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_vertices(), original.num_vertices());
  EXPECT_EQ(loaded->edges(), original.edges());
}

TEST_F(GraphIoTest, TextRoundTrip) {
  EdgeList original(6, {{0, 5}, {3, 1}, {2, 4}});
  ASSERT_TRUE(WriteEdgeListText(original, path_).ok());
  auto loaded = ReadEdgeListText(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->edges(), original.edges());
  EXPECT_EQ(loaded->num_vertices(), 6u);
}

TEST_F(GraphIoTest, BinaryDetectsCorruption) {
  EdgeList original(3, {{0, 1}});
  ASSERT_TRUE(WriteEdgeListBinary(original, path_).ok());
  // Truncate the file mid-edge.
  FILE* f = std::fopen(path_.c_str(), "r+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fflush(f), 0);
  ASSERT_EQ(::truncate(path_.c_str(), 30), 0);
  std::fclose(f);
  EXPECT_EQ(ReadEdgeListBinary(path_).status().code(),
            StatusCode::kCorruption);
}

TEST_F(GraphIoTest, BinaryRejectsEdgeCountLargerThanTheFile) {
  EdgeList original(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(WriteEdgeListBinary(original, path_).ok());
  // Header: magic (4 B) | version (u32) | num_vertices (u64) | num_edges
  // (u64). 2^40 edges would need 16 TiB; the reader must not allocate them.
  FILE* f = std::fopen(path_.c_str(), "r+");
  ASSERT_NE(f, nullptr);
  const uint64_t ne = uint64_t{1} << 40;
  ASSERT_EQ(std::fseek(f, 16, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&ne, sizeof(ne), 1, f), 1u);
  std::fclose(f);
  EXPECT_EQ(ReadEdgeListBinary(path_).status().code(),
            StatusCode::kCorruption);
}

TEST_F(GraphIoTest, MissingFileIsIOError) {
  EXPECT_EQ(ReadEdgeListBinary("/nonexistent/nope.bin").status().code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace gts
