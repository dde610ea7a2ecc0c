// live_ingest: serve::LiveServer answers MaxScore queries while a
// document stream generated from the workload seed (20% of cw) is
// ingested into cw, with refreshes and background merges on 12 workers.
// Recall is measured against the fully converged index, so it measures
// staleness. Sparta's docMap and cleaner do no work here.
#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/registry.h"
#include "corpus/synthetic.h"
#include "driver/bench_driver.h"
#include "driver/experiment.h"
#include "index/delta_segment.h"
#include "index/live_index.h"
#include "serve/live.h"
#include "util/serial_domain.h"
#include "workloads.h"

namespace sparta::perfbench {
namespace {

constexpr std::uint32_t kIngestDocs = 20'000;
constexpr std::size_t kQueries = 4000;
constexpr double kQueryQps = 2000.0;
constexpr double kIngestDps = 10'000.0;
constexpr exec::VirtualTime kSlo = 50 * exec::kMillisecond;

serve::LiveServeConfig MakeConfig(std::uint64_t seed) {
  serve::LiveServeConfig config;
  config.serve.arrivals.count = kQueries;
  config.serve.arrivals.rate_qps = kQueryQps;
  config.serve.arrivals.seed = seed;
  config.serve.slo = kSlo;
  config.ingest.arrivals.count = kIngestDocs;
  config.ingest.arrivals.rate_qps = kIngestDps;
  config.ingest.arrivals.seed = seed + 1;
  config.ingest.refresh_every_docs = 500;
  config.ingest.merge_min_docs = 4000;
  config.ingest.merge_chunk_postings = 4096;
  return config;
}

/// The ingest stream: a fresh synthetic corpus with cw's statistics.
std::vector<serve::IngestDoc> MakeIngestStream(std::uint64_t seed) {
  corpus::SyntheticCorpusSpec spec = corpus::ClueWebSimSpec().base;
  spec.num_docs = kIngestDocs;
  spec.seed = seed ^ 0x1D6E57;
  const index::RawIndexData raw = corpus::GenerateRawCorpus(spec);
  std::vector<serve::IngestDoc> docs(raw.num_docs);
  for (TermId t = 0; t < raw.term_postings.size(); ++t) {
    for (const index::RawPosting& p : raw.term_postings[t]) {
      docs[p.doc].terms.push_back({t, p.tf});
    }
  }
  for (std::uint32_t d = 0; d < raw.num_docs; ++d) {
    docs[d].doc_len = std::max<std::uint32_t>(1, raw.doc_lengths[d]);
  }
  return docs;
}

struct LivePass : Pass {
  serve::LiveServeResult live;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  SpanFold fold;
  /// The index the run left behind, compacted after the run, holds
  /// exactly the converged index's documents and postings per term.
  /// (Scores may differ: each merge re-scores against its own
  /// anchor, so the fold order shows in BM25 statistics.)
  bool converged = false;
};

LivePass RunLive(const corpus::Dataset& ds, const RunOptions& opt,
                 const std::vector<corpus::Query>& queries,
                 const std::vector<serve::IngestDoc>& docs,
                 const index::InvertedIndex& converged, bool traced) {
  const auto algo = algos::MakeAlgorithm("MaxScore");
  sim::SimConfig config =
      driver::BenchDriver(ds).MakeSimConfig(driver::kMachineWorkers);
  config.trace.enabled = traced;
  topk::SearchParams params;
  params.k = driver::DefaultK();
  params.trace.enabled = traced;

  // Every pass starts from the cached main segment (reloaded, untimed).
  Outcome fingerprints;  // set-up already recorded them
  index::LiveIndex live(
      LoadCachedIndex(corpus::ClueWebSimSpec(), opt.data_dir, fingerprints));

  LivePass pass;
  const CpuStopwatch clock;
  sim::SimExecutor executor(config);
  executor.page_cache().Reset();
  serve::LiveServer server(live, *algo, MakeConfig(opt.seed));
  pass.live = server.ServeOnSim(executor, queries, docs, params);
  pass.host_s = clock.Seconds();

  pass.cache_hits = executor.page_cache().hits();
  pass.cache_misses = executor.page_cache().misses();
  if (traced) pass.fold = FoldSpans(*executor.tracer());
  for (const serve::ServedQuery& q : pass.live.serve.queries) {
    pass.answers.push_back(AnswerOf(q));
  }
  {
    const util::SerialGuard guard(live.writer());
    live.CompactNow();
  }
  const auto compacted = live.AcquireSnapshot()->main;
  pass.converged = compacted->num_docs() == converged.num_docs() &&
                   compacted->num_terms() == converged.num_terms() &&
                   compacted->total_postings() == converged.total_postings();
  for (TermId t = 0; pass.converged && t < converged.num_terms(); ++t) {
    pass.converged = compacted->Entry(t).df == converged.Entry(t).df;
  }
  return pass;
}

}  // namespace

Outcome RunLiveIngest(const RunOptions& opt) {
  Outcome out;
  std::unique_ptr<corpus::Dataset> ds;
  std::vector<corpus::Query> queries;
  std::vector<serve::IngestDoc> docs;
  MeasureSetup(out, [&](SetupTimes& times) {
    ds.reset();
    ds = LoadDataset(corpus::ClueWebSimSpec(), opt, false, nullptr, times,
                     out);
    queries = SeededTraffic(ds->queries(), kQueries, opt.seed);
    const Stopwatch gen;
    docs = MakeIngestStream(opt.seed);
    times["corpus.ingest_gen_s"] = gen.Seconds();
  });

  // The converged index every run settles to: main + every ingested doc.
  index::DeltaSegment delta(ds->index());
  for (const serve::IngestDoc& d : docs) delta.Add(d.terms, d.doc_len);
  const index::InvertedIndex converged =
      index::MergeSegments(ds->index(), delta.Freeze());
  const int k = driver::DefaultK();
  const auto passes =
      RunPasses<LivePass>(opt, {}, out, [&](bool traced, bool) {
        return RunLive(*ds, opt, queries, docs, converged, traced);
      });
  const LivePass& pass = passes.front();
  const serve::LiveServeResult& r = pass.live;
  const serve::ServeResult& s = r.serve;
  const OracleCache oracle(converged, k, queries);
  // Every pass must converge to the standalone fold.
  for (const LivePass& p : passes) {
    if (!p.converged) {
      out.Problem("the compacted live index lost or gained postings");
    }
  }

  // MaxScore is exact, but each answer is exact for the snapshot its
  // query pinned, which the oracle does not see: recall measures the lag.
  const ServedTally tally =
      TallyServed(s.queries, queries, oracle, k, converged.num_docs(),
                  /*exact=*/false, out);
  SetEndToEndMetrics(out, tally.latencies, tally.recalls, s.GoodputQps());

  if (opt.trace) {
    std::vector<exec::VirtualTime> in_merge, outside;
    for (const serve::ServedQuery& q : s.queries) {
      if (!Answered(q)) continue;
      (r.OverlapsMerge(q.dispatch, q.completion) ? in_merge : outside)
          .push_back(q.EndToEnd());
    }
    SetQueryStatMetrics(out, tally.stats);
    SetCacheMetrics(out, pass.cache_hits, pass.cache_misses);
    SetAdmissionMetrics(out, s, tally.waits);
    out.Set("serve.max_queue_depth", static_cast<double>(s.max_queue_depth),
            "count");
    out.Set("index.live.docs_ingested_frac",
            Ratio(static_cast<double>(r.docs_ingested),
                  static_cast<double>(r.docs_offered)),
            "frac");
    out.Set("index.live.refreshes", static_cast<double>(r.refreshes),
            "count");
    out.Set("index.live.merges_committed",
            static_cast<double>(r.merges_committed), "count");
    out.Set("index.live.epochs_reclaimed",
            static_cast<double>(r.epochs_reclaimed), "count");
    exec::VirtualTime merging = 0;
    for (const serve::MergeRecord& m : r.merges) merging += m.end - m.begin;
    out.Set("serve.live.merge_busy_frac",
            Ratio(static_cast<double>(merging),
                  static_cast<double>(s.horizon)),
            "frac");
    out.Set("serve.live.merge_overlap_p99_virtual_ms",
            PercentileMs(in_merge, 99), "ms");
    out.Set("serve.live.no_merge_p99_virtual_ms", PercentileMs(outside, 99),
            "ms");
    SetSpanMetrics(out, passes.back().fold, static_cast<double>(s.completed),
                   pass.host_s);
  }
  return out;
}

}  // namespace sparta::perfbench
