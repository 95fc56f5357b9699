#include "storage/paged_graph_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "algorithms/bfs.h"
#include "algorithms/reference.h"
#include "core/engine.h"
#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "storage/page_builder.h"

namespace gts {
namespace {

class PagedGraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RmatParams p;
    p.scale = 10;
    p.edge_factor = 12;
    p.seed = 77;
    edges_ = std::move(GenerateRmat(p)).ValueOrDie();
    csr_ = CsrGraph::FromEdgeList(edges_);
    paged_ = std::move(BuildPagedGraph(csr_, PageConfig{2, 2, 1 * kKiB}))
                 .ValueOrDie();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  EdgeList edges_;
  CsrGraph csr_;
  PagedGraph paged_;
  // One file per test: ctest runs every test as its own process, several
  // at once, and a shared path let one test read another's patched file.
  std::string path_ =
      ::testing::TempDir() + "/gts_paged_io_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".gtsp";
};

TEST_F(PagedGraphIoTest, RoundTripPreservesEverything) {
  ASSERT_TRUE(WritePagedGraph(paged_, path_).ok());
  auto loaded = ReadPagedGraph(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->num_vertices(), paged_.num_vertices());
  EXPECT_EQ(loaded->num_edges(), paged_.num_edges());
  EXPECT_EQ(loaded->num_pages(), paged_.num_pages());
  EXPECT_EQ(loaded->num_small_pages(), paged_.num_small_pages());
  EXPECT_EQ(loaded->num_large_pages(), paged_.num_large_pages());
  EXPECT_EQ(loaded->config().page_size, paged_.config().page_size);

  for (PageId pid = 0; pid < paged_.num_pages(); ++pid) {
    ASSERT_EQ(loaded->page_bytes(pid), paged_.page_bytes(pid)) << pid;
    EXPECT_EQ(loaded->rvt().entry(pid).start_vid,
              paged_.rvt().entry(pid).start_vid);
    EXPECT_EQ(loaded->rvt().entry(pid).lp_more,
              paged_.rvt().entry(pid).lp_more);
    EXPECT_EQ(loaded->kind(pid), paged_.kind(pid));
  }
  for (VertexId v = 0; v < paged_.num_vertices(); ++v) {
    EXPECT_EQ(loaded->VertexLocation(v), paged_.VertexLocation(v));
  }
}

TEST_F(PagedGraphIoTest, LoadedGraphRunsAlgorithmsCorrectly) {
  ASSERT_TRUE(WritePagedGraph(paged_, path_).ok());
  PagedGraph loaded = std::move(ReadPagedGraph(path_)).ValueOrDie();
  auto store = MakeInMemoryStore(&loaded);
  MachineConfig machine = MachineConfig::PaperScaled(1);
  machine.device_memory = 32 * kMiB;
  GtsEngine engine(&loaded, store.get(), machine, GtsOptions{});

  VertexId source = 0;
  for (VertexId v = 0; v < csr_.num_vertices(); ++v) {
    if (csr_.out_degree(v) > csr_.out_degree(source)) source = v;
  }
  auto bfs = RunBfsGts(engine, source);
  ASSERT_TRUE(bfs.ok());
  const auto expected = ReferenceBfs(csr_, source);
  for (VertexId v = 0; v < csr_.num_vertices(); ++v) {
    const uint32_t want =
        expected[v] == kUnreachedLevel ? BfsKernel::kUnvisited : expected[v];
    ASSERT_EQ(bfs->levels[v], want) << "vertex " << v;
  }
}

TEST_F(PagedGraphIoTest, DetectsBadMagic) {
  ASSERT_TRUE(WritePagedGraph(paged_, path_).ok());
  FILE* f = std::fopen(path_.c_str(), "r+");
  ASSERT_NE(f, nullptr);
  std::fputs("XXXX", f);
  std::fclose(f);
  EXPECT_EQ(ReadPagedGraph(path_).status().code(), StatusCode::kCorruption);
}

TEST_F(PagedGraphIoTest, RejectsBadIdWidths) {
  ASSERT_TRUE(WritePagedGraph(paged_, path_).ok());
  FILE* f = std::fopen(path_.c_str(), "r+");
  ASSERT_NE(f, nullptr);
  // Header: magic (4 B) | version (u32) | pid_bytes (u32) | ...
  const uint32_t p = 9;
  ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&p, sizeof(p), 1, f), 1u);
  std::fclose(f);
  EXPECT_EQ(ReadPagedGraph(path_).status().code(), StatusCode::kCorruption);
}

TEST_F(PagedGraphIoTest, DetectsTruncation) {
  ASSERT_TRUE(WritePagedGraph(paged_, path_).ok());
  ASSERT_EQ(::truncate(path_.c_str(), 256), 0);
  EXPECT_EQ(ReadPagedGraph(path_).status().code(), StatusCode::kCorruption);
}

TEST_F(PagedGraphIoTest, MissingFileIsIOError) {
  EXPECT_EQ(ReadPagedGraph("/nonexistent/x.gtsp").status().code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace gts
