// paper_cw: the paper's latency mode (§5.1, Fig. 3a/3b). Sparta-high
// (Δ = 10 ms) runs a cw query grid — lengths 1-12, sampled from the
// workload seed — each query alone on WorkersFor(len) virtual workers,
// with the page cache flushed once per length as the paper's driver does.
#include <memory>
#include <vector>

#include "baselines/registry.h"
#include "driver/bench_driver.h"
#include "driver/experiment.h"
#include "sim/sim_executor.h"
#include "topk/recall.h"
#include "workloads.h"

namespace sparta::perfbench {
namespace {

/// Goodput threshold of the closed-loop grid: answers within Sparta-high's
/// own Δ.
constexpr exec::VirtualTime kSlo = 10 * exec::kMillisecond;
/// Queries per length: three times the paper's 100, so that p99 over the
/// grid (36 samples beyond it) is steady from one seed to the next.
constexpr int kQueriesPerLength = 300;

struct GridQuery {
  int length = 0;
  corpus::Query terms;
};

struct PaperPass : Pass {
  std::vector<topk::SearchResult> results;
  std::vector<double> run_host_ms;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  SpanFold fold;
  /// Queries whose busiest worker track holds more self time than the
  /// query's latency (traced pass only).
  std::size_t over_latency = 0;
};

PaperPass RunGrid(const corpus::Dataset& ds,
                  const std::vector<GridQuery>& grid,
                  const topk::SearchParams& base, bool traced) {
  const auto algo = algos::MakeAlgorithm("Sparta");
  const driver::BenchDriver driver(ds);
  topk::SearchParams params = base;
  params.trace.enabled = traced;

  PaperPass pass;
  const CpuStopwatch clock;
  std::unique_ptr<sim::SimExecutor> executor;
  int length = 0;
  const auto harvest_cache = [&] {
    if (executor == nullptr) return;
    pass.cache_hits += executor->page_cache().hits();
    pass.cache_misses += executor->page_cache().misses();
  };
  for (const GridQuery& q : grid) {
    if (q.length != length) {
      harvest_cache();
      length = q.length;
      sim::SimConfig config = driver.MakeSimConfig(driver::WorkersFor(length));
      config.trace.enabled = traced;
      executor = std::make_unique<sim::SimExecutor>(config);
      executor->page_cache().Reset();
    }
    auto ctx = executor->CreateQuery();
    const CpuStopwatch run_clock;
    topk::SearchResult result = algo->Run(ds.index(), q.terms, params, *ctx);
    pass.run_host_ms.push_back(1e3 * run_clock.Seconds());
    const exec::VirtualTime latency = ctx->end_time() - ctx->start_time();

    if (traced) {
      // Fold this query's spans, then drop them: memory stays bounded.
      const SpanFold fold = FoldSpans(*executor->tracer());
      if (fold.max_track_self > latency) ++pass.over_latency;
      pass.fold.Add(fold);
      executor->tracer()->Clear();
    }
    pass.answers.push_back({result.status != topk::ResultStatus::kOom,
                            result.entries, result.stats.postings_processed,
                            latency});
    pass.results.push_back(std::move(result));
  }
  harvest_cache();
  pass.host_s = clock.Seconds();
  return pass;
}

}  // namespace

Outcome RunPaperCw(const RunOptions& opt) {
  Outcome out;
  std::unique_ptr<corpus::Dataset> ds;
  std::vector<GridQuery> grid;
  MeasureSetup(out, [&](SetupTimes& times) {
    ds.reset();
    corpus::DatasetSpec spec = corpus::ClueWebSimSpec();
    spec.queries.queries_per_length = kQueriesPerLength;
    ds = LoadDataset(std::move(spec), opt, true, nullptr, times, out);
    grid.clear();
    for (int len = 1; len <= 12; ++len) {
      for (const corpus::Query& q : ds->queries().OfLength(len)) {
        grid.push_back({len, q});
      }
    }
  });

  const topk::SearchParams params =
      driver::HighRecallVariants().front().params;
  const auto passes = RunPasses<PaperPass>(
      opt, {.isolated = true}, out,
      [&](bool traced, bool) { return RunGrid(*ds, grid, params, traced); });
  const PaperPass& pass = passes.front();
  std::vector<corpus::Query> queries;
  for (const GridQuery& q : grid) queries.push_back(q.terms);
  const OracleCache oracle(ds->index(), params.k, queries);

  std::vector<exec::VirtualTime> latencies;
  std::vector<double> recalls;
  std::vector<topk::QueryStats> stats;
  exec::VirtualTime busy = 0;
  std::size_t good = 0;
  out.attempted = grid.size();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const topk::SearchResult& r = pass.results[i];
    const Answer& a = pass.answers[i];
    if (!WellFormed(r.entries, params.k, ds->index().num_docs())) {
      out.Problem("query " + std::to_string(i) + ": malformed result");
      ++out.failed;
      continue;
    }
    if (!a.answered) {
      ++out.failed;
      continue;
    }
    latencies.push_back(a.latency);
    busy += a.latency;
    good += a.latency <= kSlo;
    recalls.push_back(topk::Recall(oracle.Get(grid[i].terms), r.entries));
    stats.push_back(r.stats);
  }
  // Closed loop: goodput is in-SLO answers per second the machine was
  // busy with the grid.
  SetEndToEndMetrics(
      out, latencies, recalls,
      Ratio(static_cast<double>(good), static_cast<double>(busy) / 1e9));

  if (opt.trace) {
    const PaperPass& traced = passes.back();
    if (traced.over_latency > 0) {
      out.Problem(std::to_string(traced.over_latency) +
                  " queries have more self time on one worker than latency");
    }
    SetQueryStatMetrics(out, stats);
    std::vector<std::int64_t> host_us;
    for (const double ms : pass.run_host_ms) {
      host_us.push_back(static_cast<std::int64_t>(ms * 1e3));
    }
    out.Set("topk.run_host_ms_p50",
            static_cast<double>(Percentile(host_us, 50)) / 1e3, "ms");
    out.Set("topk.run_host_ms_p99",
            static_cast<double>(Percentile(host_us, 99)) / 1e3, "ms");
    SetCacheMetrics(out, pass.cache_hits, pass.cache_misses);
    SetSpanMetrics(out, traced.fold, static_cast<double>(grid.size()),
                   pass.host_s);
  }
  return out;
}

}  // namespace sparta::perfbench
