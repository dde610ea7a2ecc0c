// Shared fixtures/utilities for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "corpus/synthetic.h"
#include "exec/threaded_executor.h"
#include "index/builder.h"
#include "sim/sim_executor.h"
#include "topk/oracle.h"
#include "topk/recall.h"

namespace sparta::test {

/// Small deterministic index built from the synthetic model.
inline index::InvertedIndex MakeTinyIndex(std::uint32_t num_docs = 2000,
                                          std::uint64_t seed = 7,
                                          std::uint32_t vocab = 400) {
  corpus::SyntheticCorpusSpec spec;
  spec.num_docs = num_docs;
  spec.vocab_size = vocab;
  spec.mean_unique_terms = 25.0;
  spec.seed = seed;
  return index::FinalizeIndex(corpus::GenerateRawCorpus(spec));
}

/// Picks `m` distinct query terms with decent posting lists, spread over
/// the popularity spectrum, deterministically.
inline std::vector<TermId> PickQueryTerms(const index::InvertedIndex& idx,
                                          std::size_t m,
                                          std::uint64_t salt = 0) {
  std::vector<TermId> candidates;
  for (TermId t = 0; t < idx.num_terms(); ++t) {
    if (idx.Entry(t).df >= 4) candidates.push_back(t);
  }
  SPARTA_CHECK(candidates.size() >= m);
  std::vector<TermId> terms;
  const std::size_t stride =
      std::max<std::size_t>(1, candidates.size() / (m + 1));
  for (std::size_t i = 0; i < m; ++i) {
    terms.push_back(
        candidates[(salt + (i + 1) * stride) % candidates.size()]);
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  // Top up if dedup removed entries.
  for (std::size_t j = 0; terms.size() < m && j < candidates.size(); ++j) {
    const TermId t = candidates[(salt + j) % candidates.size()];
    if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
      terms.push_back(t);
    }
  }
  return terms;
}

/// Runs `algo_name` on the simulated machine and returns the result.
inline topk::SearchResult RunOnSim(const index::InvertedIndex& idx,
                                   std::string_view algo_name,
                                   const std::vector<TermId>& terms,
                                   const topk::SearchParams& params,
                                   int workers = 4) {
  const auto algo = algos::MakeAlgorithm(algo_name);
  SPARTA_CHECK(algo != nullptr);
  sim::SimConfig config;
  config.num_workers = workers;
  sim::SimExecutor executor(config);
  auto ctx = executor.CreateQuery();
  return algo->Run(idx, terms, params, *ctx);
}

/// Runs `algo_name` on a simulated machine with an explicit config —
/// the entry point for fault-injection and deadline tests.
inline topk::SearchResult RunOnSim(const index::InvertedIndex& idx,
                                   std::string_view algo_name,
                                   const std::vector<TermId>& terms,
                                   const topk::SearchParams& params,
                                   const sim::SimConfig& config) {
  const auto algo = algos::MakeAlgorithm(algo_name);
  SPARTA_CHECK(algo != nullptr);
  sim::SimExecutor executor(config);
  auto ctx = executor.CreateQuery();
  return algo->Run(idx, terms, params, *ctx);
}

/// Runs `algo_name` on real threads.
inline topk::SearchResult RunOnThreads(const index::InvertedIndex& idx,
                                       std::string_view algo_name,
                                       const std::vector<TermId>& terms,
                                       const topk::SearchParams& params,
                                       int workers = 4) {
  const auto algo = algos::MakeAlgorithm(algo_name);
  SPARTA_CHECK(algo != nullptr);
  exec::ThreadedExecutor::Options options;
  options.num_workers = workers;
  exec::ThreadedExecutor executor(options);
  auto ctx = executor.CreateQuery();
  return algo->Run(idx, terms, params, *ctx);
}

/// Tie-aware exactness: the result must cover the full oracle top-k (its
/// recall is 1) and have the right size.
inline ::testing::AssertionResult IsExactTopK(
    const index::InvertedIndex& idx, const std::vector<TermId>& terms,
    int k, const topk::SearchResult& result) {
  if (!result.ok()) {
    return ::testing::AssertionFailure() << "query reported OOM";
  }
  const auto exact = topk::ComputeExactTopK(idx, terms, k);
  const double recall = topk::Recall(exact, result.entries);
  if (recall < 1.0) {
    return ::testing::AssertionFailure()
           << "recall " << recall << " < 1 (exact size "
           << exact.topk.size() << ", got " << result.entries.size()
           << ")";
  }
  if (result.entries.size() != exact.topk.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: got " << result.entries.size()
           << ", expected " << exact.topk.size();
  }
  return ::testing::AssertionSuccess();
}

/// Wraps an algorithm and counts its QueryRuns: how many were prepared,
/// how many are alive now, and the most alive at once. Single-threaded
/// callers only (the simulator's serving loops).
class CountingAlgorithm final : public topk::Algorithm {
 public:
  explicit CountingAlgorithm(const topk::Algorithm& inner) : inner_(inner) {}

  std::string_view name() const override { return inner_.name(); }

  std::unique_ptr<topk::QueryRun> Prepare(
      const index::InvertedIndex& idx, std::vector<TermId> terms,
      const topk::SearchParams& params,
      exec::QueryContext& ctx) const override {
    return std::make_unique<CountedRun>(
        inner_.Prepare(idx, std::move(terms), params, ctx), *counts_);
  }

  std::size_t prepared() const { return counts_->prepared; }
  std::size_t live() const { return counts_->live; }
  std::size_t peak_live() const { return counts_->peak; }

 private:
  struct Counts {
    std::size_t prepared = 0;
    std::size_t live = 0;
    std::size_t peak = 0;
  };

  class CountedRun final : public topk::QueryRun {
   public:
    CountedRun(std::unique_ptr<topk::QueryRun> inner, Counts& counts)
        : inner_(std::move(inner)), counts_(counts) {
      ++counts_.prepared;
      counts_.peak = std::max(counts_.peak, ++counts_.live);
    }
    ~CountedRun() override { --counts_.live; }

    void Start() override { inner_->Start(); }
    topk::SearchResult TakeResult() override { return inner_->TakeResult(); }

   private:
    std::unique_ptr<topk::QueryRun> inner_;
    Counts& counts_;
  };

  const topk::Algorithm& inner_;
  std::unique_ptr<Counts> counts_ = std::make_unique<Counts>();
};

}  // namespace sparta::test
