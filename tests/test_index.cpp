// Unit tests: index — scorer, builder, block-max, disk format, random
// access.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "corpus/synthetic.h"
#include "index/block_max.h"
#include "index/builder.h"
#include "index/disk_format.h"
#include "index/scorer.h"
#include "test_helpers.h"

namespace sparta::index {
namespace {

TEST(ScorerTest, MonotoneInTf) {
  const Scorer scorer(1000, 100.0);
  PackedScore prev = 0;
  for (std::uint32_t tf = 1; tf <= 20; ++tf) {
    const auto s = scorer.TermScore(tf, 50, 100);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(ScorerTest, DecreasingInDf) {
  const Scorer scorer(1000, 100.0);
  PackedScore prev = std::numeric_limits<PackedScore>::max();
  for (const std::uint32_t df : {1u, 10u, 100u, 1000u}) {
    const auto s = scorer.TermScore(2, df, 100);
    EXPECT_LT(s, prev);
    prev = s;
  }
}

TEST(ScorerTest, DecreasingInDocLength) {
  const Scorer scorer(1000, 100.0);
  PackedScore prev = std::numeric_limits<PackedScore>::max();
  for (const std::uint32_t len : {10u, 100u, 1000u, 10000u}) {
    const auto s = scorer.TermScore(2, 50, len);
    EXPECT_LT(s, prev);
    prev = s;
  }
}

class ScorerBoundTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>> {};

TEST_P(ScorerBoundTest, MaxTermScoreIsUpperBound) {
  const auto [tf, len] = GetParam();
  const Scorer scorer(100'000, 250.0);
  for (const std::uint32_t df : {1u, 100u, 50'000u}) {
    EXPECT_LE(scorer.TermScore(tf, df, len), scorer.MaxTermScore(df));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScorerBoundTest,
    ::testing::Combine(::testing::Values(1u, 3u, 100u, 100000u),
                       ::testing::Values(1u, 250u, 100000u)));

TEST(BuilderTest, TinyCorpusPostings) {
  IndexBuilder builder;
  builder.AddDocument("apple banana apple");
  builder.AddDocument("banana cherry");
  builder.AddDocument("apple");
  const auto& vocab = builder.vocabulary();
  const TermId apple = *vocab.Lookup("apple");
  const TermId banana = *vocab.Lookup("banana");
  const TermId cherry = *vocab.Lookup("cherry");
  const auto idx = builder.Build();

  EXPECT_EQ(idx.num_docs(), 3u);
  EXPECT_EQ(idx.Term(apple).df(), 2u);
  EXPECT_EQ(idx.Term(banana).df(), 2u);
  EXPECT_EQ(idx.Term(cherry).df(), 1u);
  // Doc 0 has tf=2 for apple, doc 2 tf=1 but is shorter; both present.
  EXPECT_GT(idx.RandomAccessScore(apple, 0), 0u);
  EXPECT_GT(idx.RandomAccessScore(apple, 2), 0u);
  EXPECT_EQ(idx.RandomAccessScore(apple, 1), 0u);
}

TEST(BuilderTest, DocOrderSortedImpactOrderSorted) {
  const auto idx = test::MakeTinyIndex(800, 3);
  for (TermId t = 0; t < idx.num_terms(); ++t) {
    const auto view = idx.Term(t);
    for (std::size_t i = 1; i < view.doc_order.size(); ++i) {
      EXPECT_LT(view.doc_order[i - 1].doc, view.doc_order[i].doc);
    }
    for (std::size_t i = 1; i < view.impact_order.size(); ++i) {
      EXPECT_GE(view.impact_order[i - 1].score, view.impact_order[i].score);
    }
    // Same multiset of postings in both orders (spot-check sums).
    std::uint64_t doc_sum = 0, impact_sum = 0;
    for (const auto& p : view.doc_order) doc_sum += p.score;
    for (const auto& p : view.impact_order) impact_sum += p.score;
    EXPECT_EQ(doc_sum, impact_sum);
  }
}

TEST(BuilderTest, MaxScoreStatisticIsTight) {
  const auto idx = test::MakeTinyIndex(500, 5);
  for (TermId t = 0; t < idx.num_terms(); ++t) {
    const auto view = idx.Term(t);
    if (view.df() == 0) continue;
    PackedScore max = 0;
    for (const auto& p : view.doc_order) max = std::max(max, p.score);
    EXPECT_EQ(view.max_score, max);
    EXPECT_EQ(view.impact_order[0].score, max);
  }
}

TEST(BlockMaxTest, InvariantsHold) {
  const auto idx = test::MakeTinyIndex(1200, 7);
  for (TermId t = 0; t < idx.num_terms(); ++t) {
    const auto view = idx.Term(t);
    ASSERT_EQ(view.blocks.size(),
              (view.df() + kBlockSize - 1) / kBlockSize);
    for (std::size_t b = 0; b < view.blocks.size(); ++b) {
      const std::size_t begin = b * kBlockSize;
      const std::size_t end =
          std::min<std::size_t>(begin + kBlockSize, view.doc_order.size());
      PackedScore max = 0;
      for (std::size_t i = begin; i < end; ++i) {
        max = std::max(max, view.doc_order[i].score);
        EXPECT_LE(view.doc_order[i].doc, view.blocks[b].last_doc);
      }
      EXPECT_EQ(view.blocks[b].max_score, max);
      EXPECT_EQ(view.blocks[b].last_doc, view.doc_order[end - 1].doc);
    }
  }
}

TEST(BlockMaxTest, FindBlock) {
  std::vector<BlockMeta> blocks{{10, 1}, {20, 2}, {30, 3}};
  EXPECT_EQ(FindBlock(blocks, 0), 0u);
  EXPECT_EQ(FindBlock(blocks, 10), 0u);
  EXPECT_EQ(FindBlock(blocks, 11), 1u);
  EXPECT_EQ(FindBlock(blocks, 30), 2u);
  EXPECT_EQ(FindBlock(blocks, 31), 3u);  // past the end
}

TEST(DiskFormatTest, SaveLoadRoundTrip) {
  const auto idx = test::MakeTinyIndex(600, 9);
  const std::string path = "/tmp/sparta_test_index.idx";
  ASSERT_TRUE(SaveIndex(idx, path));
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.has_value());

  EXPECT_EQ(loaded->num_docs(), idx.num_docs());
  EXPECT_EQ(loaded->num_terms(), idx.num_terms());
  EXPECT_DOUBLE_EQ(loaded->avg_doc_len(), idx.avg_doc_len());
  EXPECT_EQ(loaded->total_postings(), idx.total_postings());
  for (TermId t = 0; t < idx.num_terms(); ++t) {
    const auto a = idx.Term(t);
    const auto b = loaded->Term(t);
    ASSERT_EQ(a.df(), b.df());
    EXPECT_EQ(a.max_score, b.max_score);
    for (std::size_t i = 0; i < a.doc_order.size(); ++i) {
      EXPECT_EQ(a.doc_order[i], b.doc_order[i]);
      EXPECT_EQ(a.impact_order[i], b.impact_order[i]);
    }
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
      EXPECT_EQ(a.blocks[i], b.blocks[i]);
    }
    // File offsets must agree so the I/O model is identical for both.
    EXPECT_EQ(a.doc_order_file_offset, b.doc_order_file_offset);
    EXPECT_EQ(a.impact_order_file_offset, b.impact_order_file_offset);
  }
  std::filesystem::remove(path);
}

TEST(DiskFormatTest, RejectsGarbage) {
  const std::string path = "/tmp/sparta_test_garbage.idx";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not an index file at all, padding padding", f);
  std::fclose(f);
  EXPECT_FALSE(LoadIndex(path).has_value());
  EXPECT_FALSE(LoadIndex("/tmp/definitely_missing_file.idx").has_value());
  std::filesystem::remove(path);
}

TEST(DiskFormatTest, LayoutIsAligned) {
  const auto layout = ComputeSectionLayout(3, 17, 17, 5);
  EXPECT_EQ(layout.term_table_offset % 8, 0u);
  EXPECT_EQ(layout.doc_postings_offset % 8, 0u);
  EXPECT_EQ(layout.impact_postings_offset % 8, 0u);
  EXPECT_EQ(layout.blocks_offset % 8, 0u);
  EXPECT_EQ(layout.total_size,
            SerializedIndexSize(3, 17, 17, 5));
}

TEST(DiskFormatTest, TruncatedFileRejected) {
  const auto idx = test::MakeTinyIndex(300, 13);
  const std::string path = "/tmp/sparta_test_truncated.idx";
  ASSERT_TRUE(SaveIndex(idx, path));
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  EXPECT_FALSE(LoadIndex(path).has_value());
  std::filesystem::remove(path);
}

// --- Payload checksums (SPARTA03 integrity footer) -------------------

namespace {

/// XORs one byte of `path` at `offset` (guaranteed to change it).
void FlipByteAt(const std::string& path, std::uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  std::fputc(c ^ 0x5a, f);
  std::fclose(f);
}

SectionLayout LayoutOf(const InvertedIndex& idx) {
  std::uint64_t num_blocks = 0;
  for (TermId t = 0; t < idx.num_terms(); ++t) {
    num_blocks += idx.Entry(t).num_blocks;
  }
  return ComputeSectionLayout(idx.num_terms(), idx.total_postings(),
                              idx.total_postings(), num_blocks);
}

}  // namespace

TEST(DiskFormatTest, CorruptedSectionsAreNamedInTheError) {
  // One corrupted byte anywhere in a section payload must fail the load
  // with an error naming that section — this is what makes the live
  // index's torn-write rollback observable rather than silent.
  const auto idx = test::MakeTinyIndex(400, 17);
  const std::string path = "/tmp/sparta_test_corrupt_section.idx";
  const SectionLayout layout = LayoutOf(idx);

  const struct {
    const char* name;
    std::uint64_t offset;
  } sections[] = {
      {"term table", layout.term_table_offset},
      {"doc-ordered postings", layout.doc_postings_offset},
      {"impact-ordered postings", layout.impact_postings_offset},
      {"block metadata", layout.blocks_offset},
  };
  for (const auto& s : sections) {
    ASSERT_TRUE(SaveIndex(idx, path));
    FlipByteAt(path, s.offset + 16);  // inside the section payload
    std::string error;
    EXPECT_FALSE(LoadIndex(path, &error).has_value()) << s.name;
    EXPECT_EQ(error,
              std::string(s.name) + " checksum mismatch: corrupted index body")
        << s.name;
  }
  std::filesystem::remove(path);
}

TEST(DiskFormatTest, CorruptedHeaderAndFooterAreRejected) {
  const auto idx = test::MakeTinyIndex(400, 17);
  const std::string path = "/tmp/sparta_test_corrupt_meta.idx";
  const SectionLayout layout = LayoutOf(idx);
  std::string error;

  // Header byte past the magic: caught by the header checksum.
  ASSERT_TRUE(SaveIndex(idx, path));
  FlipByteAt(path, 40);
  EXPECT_FALSE(LoadIndex(path, &error).has_value());
  EXPECT_EQ(error, "header checksum mismatch: corrupted index header");

  // Footer corruption: caught by the footer's self-checksum.
  ASSERT_TRUE(SaveIndex(idx, path));
  FlipByteAt(path, layout.total_size + 8);
  EXPECT_FALSE(LoadIndex(path, &error).has_value());
  EXPECT_EQ(error, "integrity footer corrupted");

  // Wrong magic entirely.
  ASSERT_TRUE(SaveIndex(idx, path));
  FlipByteAt(path, 0);
  EXPECT_FALSE(LoadIndex(path, &error).has_value());
  EXPECT_EQ(error, "bad magic: not a SPARTA03 index file");
  std::filesystem::remove(path);
}

TEST(DiskFormatTest, PreChecksumFormatGetsClearRejection) {
  const auto idx = test::MakeTinyIndex(300, 17);
  const std::string path = "/tmp/sparta_test_v1_magic.idx";
  ASSERT_TRUE(SaveIndex(idx, path));
  // Rewrite the magic to the pre-checksum SPARTA01 value.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::uint64_t v1 = kIndexMagicV1;
  ASSERT_EQ(std::fwrite(&v1, sizeof(v1), 1, f), 1u);
  std::fclose(f);
  std::string error;
  EXPECT_FALSE(LoadIndex(path, &error).has_value());
  EXPECT_EQ(error,
            "pre-checksum SPARTA01 index; rebuild with the current format");
  std::filesystem::remove(path);
}

TEST(DiskFormatTest, BytewiseChecksumFormatGetsClearRejection) {
  // SPARTA02 files carry bytewise checksums that the word-wide hash
  // would misread as corruption; they get a rebuild message instead.
  const auto idx = test::MakeTinyIndex(300, 17);
  const std::string path = "/tmp/sparta_test_v2_magic.idx";
  ASSERT_TRUE(SaveIndex(idx, path));
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::uint64_t v2 = kIndexMagicV2;
  ASSERT_EQ(std::fwrite(&v2, sizeof(v2), 1, f), 1u);
  std::fclose(f);
  std::string error;
  EXPECT_FALSE(LoadIndex(path, &error).has_value());
  EXPECT_EQ(error,
            "bytewise-checksum SPARTA02 index; rebuild with the current "
            "format");
  std::filesystem::remove(path);
}

TEST(DiskFormatTest, AtomicSaveValidatesAndSwapsCleanly) {
  const auto old_idx = test::MakeTinyIndex(300, 13);
  const auto new_idx = test::MakeTinyIndex(500, 29);
  const std::string path = "/tmp/sparta_test_atomic_save.idx";

  ASSERT_TRUE(AtomicSaveIndex(old_idx, path));
  ASSERT_TRUE(LoadIndex(path).has_value());

  // Replacing an existing index leaves no temporary behind and the
  // final file is the complete new index.
  ASSERT_TRUE(AtomicSaveIndex(new_idx, path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_docs(), new_idx.num_docs());
  EXPECT_EQ(loaded->total_postings(), new_idx.total_postings());
  std::filesystem::remove(path);
}

TEST(RandomAccessTest, MatchesDocOrderList) {
  const auto idx = test::MakeTinyIndex(700, 11);
  for (TermId t = 0; t < std::min<TermId>(50, idx.num_terms()); ++t) {
    const auto view = idx.Term(t);
    for (const auto& p : view.doc_order) {
      EXPECT_EQ(idx.RandomAccessScore(t, p.doc), p.score);
    }
    EXPECT_EQ(idx.RandomAccessScore(t, idx.num_docs() + 5), 0u);
  }
}

}  // namespace
}  // namespace sparta::index
