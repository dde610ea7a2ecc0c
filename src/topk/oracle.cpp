#include "topk/oracle.h"

#include <algorithm>

namespace sparta::topk {

ExactTopK ComputeExactTopK(const index::InvertedIndex& idx,
                           std::span<const TermId> terms, int k) {
  SPARTA_CHECK(k > 0);
  // Callers cache many answers, and per-call scratch freed around them
  // leaves holes the allocator keeps resident. So the answer is
  // allocated first and the scratch is per thread and reused; acc is
  // all zero between calls.
  ExactTopK out;
  out.topk.reserve(std::min<std::size_t>(static_cast<std::size_t>(k),
                                         idx.num_docs()));
  // Dense accumulator + touched list: O(total postings) with two passes.
  thread_local std::vector<Score> acc;
  thread_local std::vector<DocId> touched;
  if (acc.size() < idx.num_docs()) acc.resize(idx.num_docs(), 0);
  touched.clear();
  for (const TermId t : terms) {
    for (const index::Posting& p : idx.Term(t).doc_order) {
      if (acc[p.doc] == 0) touched.push_back(p.doc);
      acc[p.doc] += static_cast<Score>(p.score);
    }
  }

  // Select the k best touched documents in canonical order (score desc,
  // doc asc) and sort only those; a full sort of every touched document
  // would do the same work for up to 100K entries just to keep k.
  const auto better = [](DocId a, DocId b) {
    return acc[a] != acc[b] ? acc[a] > acc[b] : a < b;
  };
  const std::size_t take =
      std::min<std::size_t>(static_cast<std::size_t>(k), touched.size());
  const auto cut = touched.begin() + static_cast<long>(take);
  std::nth_element(touched.begin(), cut, touched.end(), better);
  std::sort(touched.begin(), cut, better);

  for (auto it = touched.begin(); it != cut; ++it) {
    out.topk.push_back({*it, acc[*it]});
  }
  out.kth_score = take == static_cast<std::size_t>(k)
                      ? out.topk.back().score
                      : 0;
  // Ties at the k-th score outside the top k, in doc order.
  if (take == static_cast<std::size_t>(k)) {
    for (auto it = cut; it != touched.end(); ++it) {
      if (acc[*it] == out.kth_score) out.boundary.push_back(*it);
    }
    std::sort(out.boundary.begin(), out.boundary.end());
  }
  for (const DocId d : touched) acc[d] = 0;  // ready for the next call
  return out;
}

}  // namespace sparta::topk
