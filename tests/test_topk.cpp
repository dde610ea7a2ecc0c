// Unit tests: topk — heap, document maps, oracle, recall.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <thread>

#include "exec/threaded_executor.h"
#include "test_helpers.h"
#include "topk/doc_heap.h"
#include "topk/doc_map.h"
#include "topk/local_accumulator.h"

namespace sparta::topk {
namespace {

TEST(TopKHeapTest, ThresholdIsKthScore) {
  TopKHeap heap(3);
  EXPECT_EQ(heap.threshold(), 0);
  heap.Insert({10, 1});
  heap.Insert({20, 2});
  EXPECT_EQ(heap.threshold(), 0);  // not yet full
  heap.Insert({30, 3});
  EXPECT_EQ(heap.threshold(), 10);
  heap.Insert({15, 4});  // evicts 10
  EXPECT_EQ(heap.threshold(), 15);
  EXPECT_FALSE(heap.Insert({5, 5}));  // below threshold
  EXPECT_TRUE(heap.Contains(4));
  EXPECT_FALSE(heap.Contains(1));
}

TEST(TopKHeapTest, TieBreaksByDocId) {
  TopKHeap heap(2);
  heap.Insert({10, 5});
  heap.Insert({10, 9});
  // Smaller doc id wins a tie: doc 3 displaces doc 9.
  EXPECT_TRUE(heap.Insert({10, 3}));
  EXPECT_TRUE(heap.Contains(3));
  EXPECT_TRUE(heap.Contains(5));
  EXPECT_FALSE(heap.Contains(9));
  // Larger doc id does not displace an equal score.
  EXPECT_FALSE(heap.Insert({10, 7}));
}

class HeapPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HeapPropertyTest, MatchesSortedReference) {
  const int k = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(k) * 31 + 7);
  TopKHeap heap(k);
  std::vector<HeapEntry> all;
  for (int i = 0; i < 5000; ++i) {
    const HeapEntry e{static_cast<Score>(rng.Below(500)),
                      static_cast<DocId>(i)};
    all.push_back(e);
    heap.Insert(e);
  }
  std::sort(all.begin(), all.end(), [](const HeapEntry& a,
                                       const HeapEntry& b) {
    return WorseThan(b, a);  // best first
  });
  const auto extracted = heap.Extract();
  ASSERT_EQ(extracted.size(), std::min<std::size_t>(k, all.size()));
  for (std::size_t i = 0; i < extracted.size(); ++i) {
    EXPECT_EQ(extracted[i].doc, all[i].doc) << "rank " << i;
    EXPECT_EQ(extracted[i].score, all[i].score) << "rank " << i;
  }
  EXPECT_EQ(heap.threshold(), extracted.back().score);
}

INSTANTIATE_TEST_SUITE_P(Ks, HeapPropertyTest,
                         ::testing::Values(1, 2, 10, 100, 1000));

TEST(TopKHeapTest, MergeEqualsUnion) {
  util::Rng rng(77);
  TopKHeap a(20), b(20), expected(20);
  for (int i = 0; i < 500; ++i) {
    const HeapEntry e{static_cast<Score>(rng.Below(10000)),
                      static_cast<DocId>(i)};
    (i % 2 == 0 ? a : b).Insert(e);
    expected.Insert(e);
  }
  a.Merge(b);
  EXPECT_EQ(a.Extract(), expected.Extract());
}

class DocMapTest : public ::testing::Test {
 protected:
  DocMapTest()
      : executor_({.num_workers = 2}), ctx_(executor_.CreateQuery()) {}

  exec::ThreadedExecutor executor_;
  std::unique_ptr<exec::QueryContext> ctx_;
};

TEST_F(DocMapTest, GetOrCreateAndFind) {
  ConcurrentDocMap map(*ctx_, /*num_terms=*/3);
  ctx_->Submit([&](exec::WorkerContext& w) {
    auto r1 = map.GetOrCreate(42, w);
    EXPECT_TRUE(r1.inserted);
    EXPECT_EQ(r1.doc->id(), 42u);
    auto r2 = map.GetOrCreate(42, w);
    EXPECT_FALSE(r2.inserted);
    EXPECT_EQ(r1.doc, r2.doc);
    EXPECT_EQ(map.Find(42, w), r1.doc);
    EXPECT_EQ(map.Find(7, w), nullptr);
    EXPECT_EQ(map.Size(), 1u);
  });
  ctx_->RunToCompletion();
}

TEST_F(DocMapTest, ReadOnlyFreezeRefusesInserts) {
  ConcurrentDocMap map(*ctx_, 2);
  ctx_->Submit([&](exec::WorkerContext& w) {
    (void)map.GetOrCreate(1, w);
    map.SetReadOnly();
    auto r = map.GetOrCreate(2, w);
    EXPECT_EQ(r.doc, nullptr);
    EXPECT_FALSE(r.inserted);
    EXPECT_FALSE(r.oom);
    EXPECT_EQ(map.Size(), 1u);
    // Existing entries still found.
    auto r2 = map.GetOrCreate(1, w);
    EXPECT_NE(r2.doc, nullptr);
  });
  ctx_->RunToCompletion();
}

TEST_F(DocMapTest, ConcurrentInsertStress) {
  ConcurrentDocMap map(*ctx_, 1);
  std::atomic<int> created{0};
  for (int job = 0; job < 8; ++job) {
    ctx_->Submit([&](exec::WorkerContext& w) {
      for (DocId d = 0; d < 2000; ++d) {
        const auto r = map.GetOrCreate(d, w);
        ASSERT_NE(r.doc, nullptr);
        ASSERT_EQ(r.doc->id(), d);
        if (r.inserted) created.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  ctx_->RunToCompletion();
  EXPECT_EQ(created.load(), 2000);  // each doc created exactly once
  EXPECT_EQ(map.Size(), 2000u);
  EXPECT_EQ(map.PeakSize(), 2000u);
}

TEST_F(DocMapTest, AddScoreAccumulates) {
  ConcurrentDocMap map(*ctx_, 0);
  for (int job = 0; job < 4; ++job) {
    ctx_->Submit([&](exec::WorkerContext& w) {
      for (int i = 0; i < 1000; ++i) {
        const auto r = map.AddScore(5, 2, w);
        ASSERT_NE(r.doc, nullptr);
      }
    });
  }
  ctx_->RunToCompletion();
  ctx_->Submit([&](exec::WorkerContext& w) {
    EXPECT_EQ(map.Find(5, w)->lb.load(), 8000);
  });
  ctx_->RunToCompletion();
}

TEST(DocMapOomTest, BudgetExceededReportsOom) {
  exec::ThreadedExecutor::Options options;
  options.num_workers = 1;
  options.memory_budget_bytes = ModeledEntryBytes(4, true) * 10;
  exec::ThreadedExecutor executor(options);
  auto ctx = executor.CreateQuery();
  ConcurrentDocMap map(*ctx, 4);
  bool saw_oom = false;
  ctx->Submit([&](exec::WorkerContext& w) {
    for (DocId d = 0; d < 100 && !saw_oom; ++d) {
      saw_oom = map.GetOrCreate(d, w).oom;
    }
  });
  ctx->RunToCompletion();
  EXPECT_TRUE(saw_oom);
  EXPECT_LE(map.Size(), 11u);
}

TEST(LocalDocMapTest, AddFindAndMemoryRelease) {
  exec::ThreadedExecutor::Options options;
  options.num_workers = 1;
  options.memory_budget_bytes = ModeledEntryBytes(2, false) * 3 + 1;
  exec::ThreadedExecutor executor(options);
  auto ctx = executor.CreateQuery();
  ctx->Submit([&](exec::WorkerContext& w) {
    ScoreSlab slab;
    DocType a(1, slab.Take(2)), b(2, slab.Take(2)), c(3, slab.Take(2)),
        d(4, slab.Take(2));
    LocalDocMap map(2);
    EXPECT_TRUE(map.Add(&a, w));
    EXPECT_TRUE(map.Add(&b, w));
    EXPECT_TRUE(map.Add(&c, w));
    EXPECT_FALSE(map.Add(&d, w));  // 4th entry exceeds the budget
    EXPECT_EQ(map.Find(2, w), &b);
    EXPECT_EQ(map.Find(99, w), nullptr);
    EXPECT_EQ(map.Size(), 3u);  // refused entries are not stored
    // Releasing frees the modeled bytes; a fresh map fits again.
    map.ReleaseModeledMemory(w);
    map.ReleaseModeledMemory(w);  // idempotent
    LocalDocMap fresh(2);
    EXPECT_TRUE(fresh.Add(&a, w));
  });
  ctx->RunToCompletion();
}

// --- flat index and score slab -------------------------------------

TEST(DocIndexTest, MatchesStdMapReference) {
  // Seeded random inserts and lookups, duplicates included, against a
  // std::map reference; the index grows through every power of two up
  // to 32K slots on the way.
  util::Rng rng(20200222);
  ScoreSlab slab;
  std::deque<DocType> records;
  DocIndex index;
  std::map<DocId, DocType*> reference;
  for (int op = 0; op < 40'000; ++op) {
    const auto doc = static_cast<DocId>(rng.Below(20'000));
    if (rng.Below(2) == 0) {
      DocType* fresh = &records.emplace_back(doc, slab.Take(1));
      const auto [it, inserted] = reference.emplace(doc, fresh);
      EXPECT_EQ(index.Insert(fresh), it->second) << "doc " << doc;
      if (!inserted) {
        EXPECT_NE(it->second, fresh);  // the first record stays
      }
    } else {
      const auto it = reference.find(doc);
      EXPECT_EQ(index.Find(doc),
                it == reference.end() ? nullptr : it->second)
          << "doc " << doc;
    }
    ASSERT_EQ(index.size(), reference.size());
  }
  EXPECT_GT(reference.size(), 10'000u);
  // Iteration visits each stored entry exactly once.
  std::map<DocId, int> visits;
  index.ForEach([&](DocType* d) {
    EXPECT_EQ(reference.at(d->id()), d);
    ++visits[d->id()];
  });
  EXPECT_EQ(visits.size(), reference.size());
  for (const auto& [doc, n] : visits) EXPECT_EQ(n, 1) << "doc " << doc;
}

TEST(DocIndexTest, KeysOfOneStripeSpreadOverTheWholeIndex) {
  // StripeOf uses the hash's low six bits, so every key of one stripe
  // shares them. Home slots drawn from those bits would crowd a stripe's
  // keys into 1/64 of its index; drawn from the other bits, they cover
  // the table like random keys.
  const std::size_t stripe = ConcurrentDocMap::StripeOf(0);
  ScoreSlab slab;
  std::deque<DocType> records;
  DocIndex index;
  for (DocId d = 0; index.size() < 2000; ++d) {
    if (ConcurrentDocMap::StripeOf(d) != stripe) continue;
    index.Insert(&records.emplace_back(d, slab.Take(0)));
  }
  const std::size_t slots = index.slot_count();
  ASSERT_GE(slots, 4096u);
  std::set<std::size_t> homes;
  std::set<std::size_t> regions;  // which 1/64 of the table
  for (const DocType& d : records) {
    const std::size_t home = index.HomeSlot(d.id());
    ASSERT_LT(home, slots);
    homes.insert(home);
    regions.insert(home / (slots / 64));
  }
  EXPECT_GT(homes.size(), slots / 4);
  EXPECT_EQ(regions.size(), 64u);
}

TEST(ScoreSlabTest, SlotsStartZeroDoNotOverlapAndStayPut) {
  ScoreSlab slab;
  std::vector<std::span<std::atomic<Score>>> taken;
  Score next = 1;
  for (int i = 0; i < 3000; ++i) {
    // Mixed run lengths cross several chunk boundaries and the cap.
    const std::size_t n = 1 + static_cast<std::size_t>(i % 7);
    const auto slots = slab.Take(n);
    ASSERT_EQ(slots.size(), n);
    for (auto& slot : slots) {
      EXPECT_EQ(slot.load(), 0);
      slot.store(next++);
    }
    taken.push_back(slots);
  }
  EXPECT_TRUE(slab.Take(0).empty());
  // Every value written is still where it was written: no later Take()
  // overlapped an earlier run, and no growth moved one.
  Score expect = 1;
  for (const auto& slots : taken) {
    for (const auto& slot : slots) EXPECT_EQ(slot.load(), expect++);
  }
  std::vector<const std::atomic<Score>*> starts;
  for (const auto& slots : taken) starts.push_back(slots.data());
  std::sort(starts.begin(), starts.end());
  EXPECT_EQ(std::adjacent_find(starts.begin(), starts.end()), starts.end());
}

// --- batched merge protocol (DESIGN.md §14) -------------------------

// Builds a stripe-homogeneous batch: ApplyBatch's contract is one
// stripe per call, so pick docs that StripeOf maps to the same stripe.
std::vector<DocId> DocsOnOneStripe(std::size_t count) {
  std::vector<DocId> docs;
  const std::size_t stripe = ConcurrentDocMap::StripeOf(0);
  for (DocId d = 0; docs.size() < count && d < 100'000; ++d) {
    if (ConcurrentDocMap::StripeOf(d) == stripe) docs.push_back(d);
  }
  SPARTA_CHECK(docs.size() == count);
  return docs;
}

TEST_F(DocMapTest, ApplyBatchGroupsDocsAndReportsInserted) {
  ConcurrentDocMap map(*ctx_, /*num_terms=*/2);
  const auto docs = DocsOnOneStripe(3);
  ctx_->Submit([&](exec::WorkerContext& w) {
    (void)map.GetOrCreate(docs[1], w);  // pre-existing entry
    // Two contributions for docs[0] (contiguous group), one each for
    // the others.
    const std::vector<PendingScore> batch = {
        {docs[0], 0, 5}, {docs[0], 1, 7}, {docs[1], 0, 3}, {docs[2], 1, 9},
    };
    std::vector<std::pair<DocId, bool>> seen;
    std::vector<std::size_t> group_sizes;
    const auto result = map.ApplyBatch(
        batch, w,
        [&](std::span<const PendingScore> group, DocType* entry,
            bool inserted) {
          ASSERT_NE(entry, nullptr);
          seen.emplace_back(group.front().doc, inserted);
          group_sizes.push_back(group.size());
          for (const auto& p : group) {
            entry->score[p.term].store(p.score,
                                       std::memory_order_relaxed);
          }
        });
    EXPECT_EQ(result.applied, 3u);  // three doc groups
    EXPECT_EQ(result.refused, 0u);
    EXPECT_FALSE(result.oom);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], (std::pair<DocId, bool>{docs[0], true}));
    EXPECT_EQ(seen[1], (std::pair<DocId, bool>{docs[1], false}));
    EXPECT_EQ(seen[2], (std::pair<DocId, bool>{docs[2], true}));
    EXPECT_EQ(group_sizes, (std::vector<std::size_t>{2, 1, 1}));
    // The sink's writes landed under the lock.
    EXPECT_EQ(map.Find(docs[0], w)->score[1].load(), 7);
    EXPECT_EQ(map.Find(docs[2], w)->score[1].load(), 9);
    EXPECT_EQ(map.Size(), 3u);
  });
  ctx_->RunToCompletion();
}

TEST_F(DocMapTest, ApplyBatchRefusesNewDocsAfterCutoff) {
  ConcurrentDocMap map(*ctx_, 1);
  const auto docs = DocsOnOneStripe(2);
  ctx_->Submit([&](exec::WorkerContext& w) {
    (void)map.GetOrCreate(docs[0], w);
    map.SetReadOnly();
    const std::vector<PendingScore> batch = {{docs[0], 0, 4},
                                             {docs[1], 0, 6}};
    const auto result = map.ApplyBatch(
        batch, w,
        [](std::span<const PendingScore> group, DocType* entry, bool) {
          entry->score[0].store(group.front().score,
                                std::memory_order_relaxed);
        });
    // Existing docs still take updates; new docs are refused — the
    // post-cutoff drop the caller proves safe via SumUB <= theta.
    EXPECT_EQ(result.applied, 1u);
    EXPECT_EQ(result.refused, 1u);
    EXPECT_FALSE(result.oom);
    EXPECT_EQ(map.Find(docs[0], w)->score[0].load(), 4);
    EXPECT_EQ(map.Find(docs[1], w), nullptr);
  });
  ctx_->RunToCompletion();
}

TEST(DocMapBatchOomTest, ApplyBatchStopsHonestlyMidBatch) {
  exec::ThreadedExecutor::Options options;
  options.num_workers = 1;
  options.memory_budget_bytes = ModeledEntryBytes(1, true) * 2 + 1;
  exec::ThreadedExecutor executor(options);
  auto ctx = executor.CreateQuery();
  ConcurrentDocMap map(*ctx, 1);
  ctx->Submit([&](exec::WorkerContext& w) {
    std::vector<PendingScore> batch;
    const std::size_t stripe = ConcurrentDocMap::StripeOf(0);
    for (DocId d = 0; batch.size() < 8 && d < 100'000; ++d) {
      if (ConcurrentDocMap::StripeOf(d) == stripe) batch.push_back({d, 0, 1});
    }
    std::size_t sink_calls = 0;
    const auto result = map.ApplyBatch(
        batch, w,
        [&](std::span<const PendingScore>, DocType*, bool) {
          ++sink_calls;
        });
    // The budget admits two entries; the third insert fails and the
    // batch stops there — applied groups stay applied (no rollback),
    // the rest is reported via oom, never silently dropped.
    EXPECT_TRUE(result.oom);
    EXPECT_EQ(result.applied, 2u);
    EXPECT_EQ(sink_calls, 2u);
    EXPECT_EQ(map.Size(), 2u);
  });
  ctx->RunToCompletion();
}

TEST(LocalAccumulatorTest, CoalescesPerModeAndMergesInArrivalOrder) {
  exec::ThreadedExecutor executor({.num_workers = 1});
  auto ctx = executor.CreateQuery();
  ConcurrentDocMap map(*ctx, 2);
  ctx->Submit([&](exec::WorkerContext& w) {
    LocalAccumulator store(AccumulatorMode::kStore, 2);
    ASSERT_TRUE(store.Add(10, 0, 5, w));
    ASSERT_TRUE(store.Add(10, 0, 8, w));  // same key: overwrite
    ASSERT_TRUE(store.Add(11, 1, 2, w));
    EXPECT_EQ(store.Size(), 2u);  // coalesced, not appended

    std::vector<DocId> merge_order;
    const auto stats = store.MergeInto(
        map, w,
        [&](std::span<const PendingScore> group, DocType* entry,
            bool inserted, Score folded) {
          merge_order.push_back(group.front().doc);
          EXPECT_TRUE(inserted);
          EXPECT_EQ(group.size(), 1u);
          entry->score[group.front().term].store(
              folded, std::memory_order_relaxed);
        });
    EXPECT_EQ(stats.applied, 2u);
    EXPECT_FALSE(stats.oom);
    EXPECT_GE(stats.batches, 1u);
    EXPECT_TRUE(store.Empty());  // merge always drains the buffer
    EXPECT_EQ(map.Find(10, w)->score[0].load(), 8);  // latest value won
    EXPECT_EQ(map.Find(11, w)->score[1].load(), 2);

    LocalAccumulator sum(AccumulatorMode::kAccumulate, 2);
    ASSERT_TRUE(sum.Add(20, 0, 5, w));
    ASSERT_TRUE(sum.Add(20, 0, 8, w));  // same key: add
    EXPECT_EQ(sum.Size(), 1u);
    Score folded_total = 0;
    (void)sum.MergeInto(map, w,
                        [&](std::span<const PendingScore>, DocType*, bool,
                            Score folded) { folded_total = folded; });
    EXPECT_EQ(folded_total, 13);
  });
  ctx->RunToCompletion();
}

TEST(LocalAccumulatorTest, ChargesAndReleasesModeledMemory) {
  exec::ThreadedExecutor::Options options;
  options.num_workers = 1;
  options.memory_budget_bytes = ModeledEntryBytes(1, false) * 2 + 1;
  exec::ThreadedExecutor executor(options);
  auto ctx = executor.CreateQuery();
  ctx->Submit([&](exec::WorkerContext& w) {
    LocalAccumulator acc(AccumulatorMode::kStore, 1);
    EXPECT_TRUE(acc.Add(1, 0, 1, w));
    EXPECT_TRUE(acc.Add(2, 0, 1, w));
    // Third distinct doc exceeds the budget: buffering cannot hide
    // footprint from the OOM accounting.
    EXPECT_FALSE(acc.Add(3, 0, 1, w));
    EXPECT_EQ(acc.Size(), 2u);  // refused entry not stored
    // Recurrence on a buffered key needs no new memory.
    EXPECT_TRUE(acc.Add(1, 0, 9, w));
    // Clear releases the modeled bytes; a fresh buffer fits again.
    acc.Clear(w);
    EXPECT_TRUE(acc.Empty());
    LocalAccumulator fresh(AccumulatorMode::kStore, 1);
    EXPECT_TRUE(fresh.Add(7, 0, 1, w));
  });
  ctx->RunToCompletion();
}

TEST(DocTypeTest, BoundsArithmetic) {
  ScoreSlab slab;
  DocType d(9, slab.Take(3));
  UpperBounds ub(3);
  ub[0].store(10);
  ub[1].store(20);
  ub[2].store(30);
  EXPECT_EQ(d.SumScores(), 0);
  EXPECT_EQ(d.UpperBound(ub), 60);  // nothing known yet
  d.score[1].store(15);
  EXPECT_EQ(d.SumScores(), 15);
  EXPECT_EQ(d.UpperBound(ub), 10 + 15 + 30);
}

TEST(OracleTest, MatchesNaiveReference) {
  const auto idx = test::MakeTinyIndex(400, 21);
  const auto terms = test::PickQueryTerms(idx, 4, 2);
  const auto exact = ComputeExactTopK(idx, terms, 10);
  // Naive reference: random-access score every document.
  std::vector<ResultEntry> all;
  for (DocId d = 0; d < idx.num_docs(); ++d) {
    Score s = 0;
    for (const TermId t : terms) s += idx.RandomAccessScore(t, d);
    if (s > 0) all.push_back({d, s});
  }
  CanonicalizeResult(all);
  ASSERT_GE(all.size(), exact.topk.size());
  for (std::size_t i = 0; i < exact.topk.size(); ++i) {
    EXPECT_EQ(exact.topk[i], all[i]);
  }
  EXPECT_EQ(exact.kth_score, exact.topk.back().score);
}

TEST(OracleTest, SelectionMatchesAFullSortAtEveryK) {
  // The oracle selects the top k instead of sorting every touched
  // document; the answer, the k-th score and the tie boundary must be
  // exactly what a full canonical sort gives, for every k.
  const auto idx = test::MakeTinyIndex(2000, 21);
  const auto terms = test::PickQueryTerms(idx, 3, 5);
  std::vector<ResultEntry> all;
  for (DocId d = 0; d < idx.num_docs(); ++d) {
    Score s = 0;
    for (const TermId t : terms) s += idx.RandomAccessScore(t, d);
    if (s > 0) all.push_back({d, s});
  }
  CanonicalizeResult(all);
  ASSERT_GT(all.size(), 100u);
  std::size_t tied = 0;  // k values whose boundary is not empty
  for (std::size_t k = 1; k <= all.size() + 2; ++k) {
    const auto exact = ComputeExactTopK(idx, terms, static_cast<int>(k));
    const std::size_t take = std::min(k, all.size());
    const std::vector<ResultEntry> want(all.begin(),
                                        all.begin() + static_cast<long>(take));
    EXPECT_EQ(exact.topk, want) << "k " << k;
    const Score kth = take == k ? all[k - 1].score : 0;
    EXPECT_EQ(exact.kth_score, kth) << "k " << k;
    std::vector<DocId> boundary;
    for (std::size_t i = take; take == k && i < all.size(); ++i) {
      if (all[i].score == kth) boundary.push_back(all[i].doc);
    }
    EXPECT_EQ(exact.boundary, boundary) << "k " << k;
    tied += !boundary.empty();
  }
  EXPECT_GT(tied, 0u);  // the tie path ran at least once
}

TEST(OracleTest, FewerMatchesThanK) {
  const auto idx = test::MakeTinyIndex(200, 23);
  // Pick the rarest usable term.
  TermId rare = 0;
  std::uint32_t best_df = std::numeric_limits<std::uint32_t>::max();
  for (TermId t = 0; t < idx.num_terms(); ++t) {
    const auto df = idx.Entry(t).df;
    if (df > 0 && df < best_df) {
      best_df = df;
      rare = t;
    }
  }
  const std::vector<TermId> terms{rare};
  const auto exact = ComputeExactTopK(idx, terms, 1000);
  EXPECT_EQ(exact.topk.size(), best_df);
  EXPECT_EQ(exact.kth_score, 0);  // heap never filled
}

TEST(RecallTest, TieAwareness) {
  ExactTopK exact;
  exact.topk = {{1, 100}, {2, 50}, {3, 50}};
  exact.kth_score = 50;
  exact.boundary = {4};  // doc 4 also scores 50, outside the list

  const std::vector<ResultEntry> perfect{{1, 100}, {2, 50}, {3, 50}};
  EXPECT_DOUBLE_EQ(Recall(exact, perfect), 1.0);

  // Doc 4 substitutes for doc 3: still perfect recall (interchangeable).
  const std::vector<ResultEntry> tied{{1, 100}, {2, 50}, {4, 50}};
  EXPECT_DOUBLE_EQ(Recall(exact, tied), 1.0);

  const std::vector<ResultEntry> partial{{1, 100}, {9, 10}, {8, 5}};
  EXPECT_NEAR(Recall(exact, partial), 1.0 / 3.0, 1e-9);

  // Duplicates must not double count.
  const std::vector<ResultEntry> dupes{{1, 100}, {1, 100}, {1, 100}};
  EXPECT_NEAR(Recall(exact, dupes), 1.0 / 3.0, 1e-9);
}

TEST(RecallTest, EmptyExactIsPerfect) {
  ExactTopK exact;
  EXPECT_DOUBLE_EQ(Recall(exact, {}), 1.0);
}

using DocMapDeathTest = DocMapTest;

TEST_F(DocMapDeathTest, UnfrozenForEachAborts) {
  // The unlocked ForEach(fn) is sound only after the freeze protocol
  // ran (Freeze() drains every stripe lock before publishing frozen_);
  // calling it on a live map must trip the always-on check rather than
  // silently scan racing stripes.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ConcurrentDocMap map(*ctx_, /*num_terms=*/1);
  ctx_->Submit([&](exec::WorkerContext& w) { (void)map.GetOrCreate(1, w); });
  ctx_->RunToCompletion();
  EXPECT_DEATH(map.ForEach([](DocType*) {}), "read_only");
}

}  // namespace
}  // namespace sparta::topk
