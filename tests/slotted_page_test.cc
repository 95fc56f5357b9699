#include "storage/slotted_page.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/rmat_generator.h"
#include "storage/page_builder.h"
#include "storage/paged_graph.h"

namespace gts {
namespace {

TEST(EncodeLeTest, RoundTripsAllWidths) {
  uint8_t buf[8] = {};
  for (uint32_t width = 1; width <= 8; ++width) {
    const uint64_t value = 0x1122334455667788ULL &
                           ((width == 8) ? ~uint64_t{0}
                                         : ((uint64_t{1} << (8 * width)) - 1));
    EncodeLE(buf, value, width);
    EXPECT_EQ(DecodeLE(buf, width), value) << "width " << width;
  }
}

TEST(PageConfigTest, LimitsMatchPaperTable2) {
  // Table 2: 6-byte physical IDs.
  auto r24 = ComputePhysicalIdLimits(2, 4);
  EXPECT_EQ(r24.max_page_id, 64ULL * 1024);              // 64 K
  EXPECT_EQ(r24.max_slot_number, 4ULL * 1024 * 1024 * 1024);  // 4 B
  EXPECT_EQ(r24.max_page_bytes, 80ULL * 1024 * 1024 * 1024);  // 80 GB

  auto r33 = ComputePhysicalIdLimits(3, 3);
  EXPECT_EQ(r33.max_page_id, 16ULL * 1024 * 1024);       // 16 M
  EXPECT_EQ(r33.max_slot_number, 16ULL * 1024 * 1024);   // 16 M
  EXPECT_EQ(r33.max_page_bytes, 320ULL * 1024 * 1024);   // 320 MB

  auto r42 = ComputePhysicalIdLimits(4, 2);
  EXPECT_EQ(r42.max_page_id, 4ULL * 1024 * 1024 * 1024);  // 4 B
  EXPECT_EQ(r42.max_slot_number, 64ULL * 1024);           // 64 K
  EXPECT_EQ(r42.max_page_bytes, 5ULL * 64 * 1024 * 4);    // 1.25 MB
}

TEST(PageWriterTest, WritesRecordsAndSlots) {
  PageConfig config = PageConfig::Small22();
  std::vector<uint8_t> buf(config.page_size, 0);
  PageWriter writer(buf.data(), config, PageKind::kSmall);

  ASSERT_TRUE(writer.Fits(2));
  const uint32_t s0 = writer.AppendRecord(/*vid=*/10, /*degree=*/2);
  writer.SetEntry(s0, 0, RecordId{3, 7});
  writer.SetEntry(s0, 1, RecordId{1, 0});
  const uint32_t s1 = writer.AppendRecord(/*vid=*/11, /*degree=*/0);

  PageView view(buf.data(), config);
  EXPECT_EQ(view.kind(), PageKind::kSmall);
  ASSERT_EQ(view.num_slots(), 2u);
  EXPECT_EQ(view.slot_vid(s0), 10u);
  EXPECT_EQ(view.slot_vid(s1), 11u);
  EXPECT_EQ(view.adjlist_size(s0), 2u);
  EXPECT_EQ(view.adjlist_size(s1), 0u);
  EXPECT_EQ(view.adj_entry(s0, 0), (RecordId{3, 7}));
  EXPECT_EQ(view.adj_entry(s0, 1), (RecordId{1, 0}));
  EXPECT_EQ(view.total_entries(), 2u);
}

TEST(AdjListTest, DecodesLikeDecodeLeUnderEveryIdWidth) {
  for (uint32_t p = 1; p <= PageConfig::kMaxIdBytes; ++p) {
    for (uint32_t q = 1; q <= PageConfig::kMaxIdBytes; ++q) {
      const PageConfig config{p, q, 256};
      std::vector<uint8_t> buf(config.page_size, 0);
      PageWriter writer(buf.data(), config, PageKind::kSmall);
      // Fill the page, so the last record ends as close to the slot
      // directory as the layout allows; entries spread over each field's
      // full width.
      const uint64_t pid_mask = config.max_pages() - 1;
      const uint64_t slot_mask = config.max_slots() - 1;
      uint32_t n = 0;
      while (writer.Fits(3)) {
        const uint32_t slot = writer.AppendRecord(n, 3);
        for (uint32_t j = 0; j < 3; ++j) {
          const uint64_t salt = uint64_t{0x9E3779B97F4A7C15} * (n * 3 + j + 1);
          writer.SetEntry(slot, j,
                          RecordId{static_cast<PageId>(salt & pid_mask),
                                   static_cast<uint32_t>((salt >> 32) &
                                                         slot_mask)});
        }
        ++n;
      }
      PageView view(buf.data(), config);
      ASSERT_EQ(view.num_slots(), n) << config.ToString();
      for (uint32_t s = 0; s < n; ++s) {
        const AdjList list = view.adj_list(s);
        ASSERT_EQ(list.size(), 3u);
        const uint8_t* entries =
            buf.data() + view.slot_record_offset(s) + sizeof(uint32_t);
        for (uint32_t j = 0; j < list.size(); ++j) {
          const uint8_t* entry = entries + j * config.entry_bytes();
          const RecordId expected{static_cast<PageId>(DecodeLE(entry, p)),
                                  static_cast<uint32_t>(
                                      DecodeLE(entry + p, q))};
          EXPECT_EQ(list[j], expected) << config.ToString() << " slot " << s;
          EXPECT_EQ(view.adj_entry(s, j), expected);
        }
      }
    }
  }
}

/// A page PageWriter writes with one record per list (vids 1, 2, ...).
std::vector<uint8_t> WritePage(
    const PageConfig& config, const std::vector<std::vector<RecordId>>& lists) {
  std::vector<uint8_t> buf(config.page_size, 0);
  PageWriter writer(buf.data(), config, PageKind::kSmall);
  for (const auto& list : lists) {
    const uint32_t slot = writer.AppendRecord(writer.num_slots() + 1,
                                              list.size());
    for (uint32_t j = 0; j < list.size(); ++j) {
      writer.SetEntry(slot, j, list[j]);
    }
  }
  return buf;
}

TEST(PageEditTest, InPlaceEditsMatchPageWriterUnderEveryIdWidth) {
  const RecordId a{3, 7}, b{1, 0}, c{9, 2}, d{4, 4}, e{200, 1};
  const RecordId x{5, 250}, y{255, 255};
  for (uint32_t p = 1; p <= PageConfig::kMaxIdBytes; ++p) {
    for (uint32_t q = 1; q <= PageConfig::kMaxIdBytes; ++q) {
      const PageConfig config{p, q, 256};
      std::vector<uint8_t> page = WritePage(config, {{a, b}, {}, {c, d, e}});
      ASSERT_TRUE(HasWriterLayout(page.data(), config));
      AppendEntryInPlace(page.data(), config, 1, x);  // middle, empty slot
      AppendEntryInPlace(page.data(), config, 0, y);  // shifts both others
      EraseEntryInPlace(page.data(), config, 2, 0);   // last slot
      EraseEntryInPlace(page.data(), config, 0, 0);   // leaves a tail
      const std::vector<uint8_t> want =
          WritePage(config, {{b, y}, {x}, {d, e}});
      EXPECT_EQ(page, want) << config.ToString();
      EXPECT_TRUE(HasWriterLayout(page.data(), config));
      page[PageView(page.data(), config).records_end()] = 1;
      EXPECT_FALSE(HasWriterLayout(page.data(), config));
    }
  }
}

TEST(PageWriterTest, FreeBytesShrinkAndFitsSaysNo) {
  PageConfig config{2, 2, 256};
  std::vector<uint8_t> buf(config.page_size, 0);
  PageWriter writer(buf.data(), config, PageKind::kSmall);
  const uint64_t before = writer.FreeBytes();
  writer.AppendRecord(0, 4);
  EXPECT_EQ(writer.FreeBytes(), before - writer.RecordFootprint(4));
  // Fill the page with (4+entry*deg+12)-byte records until full.
  while (writer.Fits(4)) writer.AppendRecord(1, 4);
  EXPECT_FALSE(writer.Fits(4));
  EXPECT_TRUE(writer.FreeBytes() < writer.RecordFootprint(4));
}

// ---- Page builder on a hand-made graph (mirrors Figure 1) -------------

TEST(PageBuilderTest, LowDegreeVerticesShareSmallPage) {
  // v0..v3 low degree: all fit in one SP.
  EdgeList list(4, {{0, 1}, {0, 2}, {1, 2}, {2, 0}, {3, 0}});
  CsrGraph g = CsrGraph::FromEdgeList(list);
  auto built = BuildPagedGraph(g, PageConfig::Small22());
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->num_small_pages(), 1u);
  EXPECT_EQ(built->num_large_pages(), 0u);
  EXPECT_EQ(built->num_pages(), 1u);
  PageView view = built->view(0);
  EXPECT_EQ(view.num_slots(), 4u);
  // RVT translation: slot i of page 0 is vertex i.
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(built->rvt().ToVid(RecordId{0, i}), i);
  }
}

TEST(PageBuilderTest, HighDegreeVertexBecomesLargePages) {
  // v3 has 600 neighbors; with 1 KiB pages and 4-byte entries its record
  // (4 + 2400 + 12 bytes) cannot fit in one page -> multiple LPs.
  std::vector<Edge> edges;
  for (VertexId i = 0; i < 3; ++i) edges.push_back({i, i + 1});
  for (VertexId j = 0; j < 600; ++j) edges.push_back({3, (j * 7) % 700});
  EdgeList list(700, edges);
  CsrGraph g = CsrGraph::FromEdgeList(list);
  auto built = BuildPagedGraph(g, PageConfig{2, 2, 1 * kKiB});
  ASSERT_TRUE(built.ok());
  EXPECT_GE(built->num_large_pages(), 2u);

  // v3's location points at its first LP, slot 0.
  const RecordId loc = built->VertexLocation(3);
  EXPECT_EQ(built->kind(loc.pid), PageKind::kLarge);
  EXPECT_EQ(loc.slot, 0u);
  EXPECT_EQ(built->rvt().ToVid(loc), 3u);

  // Sum of LP chunk sizes equals v3's degree, chunks indexed in order.
  uint64_t total = 0;
  uint32_t expected_chunk = 0;
  for (PageId pid : built->large_page_ids()) {
    PageView view = built->view(pid);
    EXPECT_EQ(view.header().lp_chunk_index, expected_chunk++);
    EXPECT_EQ(view.num_slots(), 1u);
    EXPECT_EQ(view.slot_vid(0), 3u);
    total += view.adjlist_size(0);
  }
  EXPECT_EQ(total, 600u);
}

TEST(PageBuilderTest, LpVertexTerminatesCurrentSmallPage) {
  // v0,v1 small; v2 huge; v3,v4 small. v3 must start a fresh SP so that
  // VIDs stay gap-free within each SP (RVT translation invariant).
  std::vector<Edge> edges = {{0, 1}, {1, 0}, {3, 4}, {4, 3}};
  for (VertexId j = 0; j < 400; ++j) edges.push_back({2, j % 5});
  EdgeList list(5, edges);
  CsrGraph g = CsrGraph::FromEdgeList(list);
  auto built = BuildPagedGraph(g, PageConfig{2, 2, 1 * kKiB});
  ASSERT_TRUE(built.ok());
  ASSERT_EQ(built->num_small_pages(), 2u);

  const RecordId loc3 = built->VertexLocation(3);
  EXPECT_EQ(loc3.slot, 0u);  // first slot of the second SP
  EXPECT_EQ(built->rvt().ToVid(loc3), 3u);
  EXPECT_EQ(built->rvt().ToVid(built->VertexLocation(4)), 4u);
}

TEST(PageBuilderTest, CapacityExceededWhenPidBytesTooSmall) {
  // p=1 allows only 256 pages; a graph needing more must be rejected.
  RmatParams params;
  params.scale = 12;
  params.edge_factor = 16;
  EdgeList list = std::move(GenerateRmat(params)).ValueOrDie();
  CsrGraph g = CsrGraph::FromEdgeList(list);
  auto built = BuildPagedGraph(g, PageConfig{1, 2, 1024});
  EXPECT_EQ(built.status().code(), StatusCode::kCapacityExceeded);
}

TEST(PageBuilderTest, RejectsIdWidthsOutsideOneToFour) {
  EdgeList list(2, {{0, 1}});
  CsrGraph g = CsrGraph::FromEdgeList(list);
  for (const PageConfig& config :
       {PageConfig{0, 2, 4 * kKiB}, PageConfig{5, 2, 4 * kKiB},
        PageConfig{2, 5, 4 * kKiB}}) {
    EXPECT_EQ(BuildPagedGraph(g, config).status().code(),
              StatusCode::kInvalidArgument)
        << config.ToString();
  }
}

TEST(PageBuilderTest, RejectsAbsurdlySmallPages)  {
  EdgeList list(2, {{0, 1}});
  CsrGraph g = CsrGraph::FromEdgeList(list);
  auto built = BuildPagedGraph(g, PageConfig{2, 2, 24});
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
}

// ---- Property test: the paged form encodes exactly the input graph -----

class PageRoundTripTest : public ::testing::TestWithParam<
                              std::tuple<int /*scale*/, int /*edge_factor*/>> {
};

TEST_P(PageRoundTripTest, DecodingPagesRecoversEveryAdjacencyList) {
  RmatParams params;
  params.scale = std::get<0>(GetParam());
  params.edge_factor = std::get<1>(GetParam());
  EdgeList list = std::move(GenerateRmat(params)).ValueOrDie();
  CsrGraph g = CsrGraph::FromEdgeList(list);
  auto built = BuildPagedGraph(g, PageConfig::Small22());
  ASSERT_TRUE(built.ok());

  // Decode all pages back into adjacency lists via RVT translation.
  std::vector<std::vector<VertexId>> decoded(g.num_vertices());
  for (PageId pid = 0; pid < built->num_pages(); ++pid) {
    PageView view = built->view(pid);
    for (uint32_t s = 0; s < view.num_slots(); ++s) {
      const VertexId v = view.slot_vid(s);
      EXPECT_EQ(built->rvt().ToVid(RecordId{pid, s}), v);
      for (uint32_t j = 0; j < view.adjlist_size(s); ++j) {
        decoded[v].push_back(built->rvt().ToVid(view.adj_entry(s, j)));
      }
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto expected = g.neighbors(v);
    ASSERT_EQ(decoded[v].size(), expected.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(decoded[v].begin(), decoded[v].end(),
                           expected.begin()))
        << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PageRoundTripTest,
    ::testing::Values(std::make_tuple(8, 4), std::make_tuple(10, 16),
                      std::make_tuple(12, 8), std::make_tuple(12, 32)));

// ---- Property test: round trip across (p,q) configurations ------------

class ConfigRoundTripTest : public ::testing::TestWithParam<PageConfig> {};

TEST_P(ConfigRoundTripTest, DecodesEveryEdgeUnderAnyConfig) {
  RmatParams params;
  params.scale = 11;
  params.edge_factor = 12;
  params.seed = 321;
  EdgeList list = std::move(GenerateRmat(params)).ValueOrDie();
  CsrGraph g = CsrGraph::FromEdgeList(list);
  auto built = BuildPagedGraph(g, GetParam());
  ASSERT_TRUE(built.ok()) << built.status();

  uint64_t decoded_edges = 0;
  for (PageId pid = 0; pid < built->num_pages(); ++pid) {
    PageView view = built->view(pid);
    for (uint32_t s = 0; s < view.num_slots(); ++s) {
      const VertexId v = view.slot_vid(s);
      const auto expected = g.neighbors(v);
      if (view.kind() == PageKind::kSmall) {
        ASSERT_EQ(view.adjlist_size(s), expected.size());
      }
      for (uint32_t j = 0; j < view.adjlist_size(s); ++j) {
        const VertexId w = built->rvt().ToVid(view.adj_entry(s, j));
        // LP chunks hold consecutive ranges of the neighbor list.
        const uint64_t offset =
            view.kind() == PageKind::kLarge
                ? static_cast<uint64_t>(view.header().lp_chunk_index) *
                      ((GetParam().page_size - kPageHeaderBytes -
                        sizeof(uint32_t) - kSlotBytes) /
                       GetParam().entry_bytes())
                : 0;
        ASSERT_EQ(w, expected[offset + j]);
        ++decoded_edges;
      }
    }
  }
  EXPECT_EQ(decoded_edges, g.num_edges());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConfigRoundTripTest,
    ::testing::Values(PageConfig{2, 2, 1 * kKiB}, PageConfig{2, 2, 4 * kKiB},
                      PageConfig{3, 3, 64 * kKiB},
                      PageConfig{2, 4, 16 * kKiB},
                      PageConfig{4, 2, 2 * kKiB},
                      PageConfig{3, 3, 512}, PageConfig{1, 1, 1 * kKiB},
                      PageConfig{4, 4, 4 * kKiB}),
    [](const auto& info) {
      return "p" + std::to_string(info.param.pid_bytes) + "q" +
             std::to_string(info.param.off_bytes) + "ps" +
             std::to_string(info.param.page_size);
    });

TEST(PageBuilderTest, EveryVertexHasALocationIncludingIsolated) {
  EdgeList list(10, {{0, 9}});  // vertices 1..8 isolated
  CsrGraph g = CsrGraph::FromEdgeList(list);
  auto built = BuildPagedGraph(g, PageConfig::Small22());
  ASSERT_TRUE(built.ok());
  for (VertexId v = 0; v < 10; ++v) {
    const RecordId loc = built->VertexLocation(v);
    EXPECT_EQ(built->rvt().ToVid(loc), v);
    PageView view = built->view(loc.pid);
    EXPECT_EQ(view.slot_vid(loc.slot), v);
  }
}

}  // namespace
}  // namespace gts
