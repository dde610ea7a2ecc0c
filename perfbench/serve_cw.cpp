// serve_cw: open-loop Poisson arrivals of the voice-query mix (mean 4.2
// terms) on cw, with the modelled page cache shrunk to cwx10's 8% of the
// index so that reads go to the modelled SSD. Sparta-high runs on 12
// workers behind serve::Server's protected policy — bounded queue,
// shedding and the degradation ladder — with the flight recorder on, as
// in production. The offered rate is a constant: a fixed share of the
// closed-loop capacity measured once on this workload.
#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "baselines/registry.h"
#include "driver/bench_driver.h"
#include "driver/experiment.h"
#include "serve/server.h"
#include "workloads.h"

namespace sparta::perfbench {
namespace {

/// cwx10's page-cache share: the index does not fit in memory.
constexpr double kPageCacheFraction = 0.08;
/// Closed-loop capacity of Sparta-high on cw at kPageCacheFraction,
/// virtual queries/s (measured once; never recalibrated at run time).
constexpr double kCapacityQps = 4487.0;
constexpr double kOfferedQps = 0.3 * kCapacityQps;
/// Arrivals per round. A pass serves kRounds rounds, each on a fresh
/// machine with its own arrival times, and pools their answers: the tail
/// then rests on several arrival sequences, and memory stays that of one
/// round (the simulator's per-run state grows with the arrivals).
constexpr std::size_t kArrivals = 300;
constexpr int kRounds = 5;
constexpr exec::VirtualTime kSlo = 20 * exec::kMillisecond;
/// Admission's service-time estimate until completions are observed.
constexpr exec::VirtualTime kInitialServiceNs = 2 * exec::kMillisecond;

serve::ServeConfig MakeServeConfig(std::uint64_t seed) {
  serve::ServeConfig sc;
  sc.arrivals.seed = seed;
  sc.arrivals.rate_qps = kOfferedQps;
  sc.arrivals.count = kArrivals;
  sc.slo = kSlo;
  sc.admission.queue_capacity = 64;
  sc.admission.shed_predicted_wait = true;
  sc.admission.initial_departure_gap_ns =
      static_cast<exec::VirtualTime>(1e9 / kCapacityQps);
  sc.admission.initial_service_ns = kInitialServiceNs;
  sc.admission.slo_headroom = 0.75;
  sc.ladder = serve::DegradationLadder::Default();
  sc.deadline_from_slo = true;
  return sc;
}

struct ServePass : Pass {
  serve::ServeResult serve;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t flight_events = 0;
  SpanFold fold;
};

/// Appends `round` to `total`: its records, summed counts and virtual
/// time (so GoodputQps is answers within the SLO per virtual second over
/// all rounds), and the deepest queue.
void AddRound(serve::ServeResult& total, serve::ServeResult round) {
  total.queries.insert(total.queries.end(),
                       std::make_move_iterator(round.queries.begin()),
                       std::make_move_iterator(round.queries.end()));
  total.offered += round.offered;
  total.rejected_full += round.rejected_full;
  total.shed += round.shed;
  total.completed += round.completed;
  total.degraded += round.degraded;
  total.goodput += round.goodput;
  total.anomalies += round.anomalies;
  total.horizon += round.horizon;
  total.max_queue_depth = std::max(total.max_queue_depth,
                                   round.max_queue_depth);
}

ServePass RunServe(const corpus::Dataset& ds,
                   const std::vector<corpus::Query>& mix,
                   const topk::SearchParams& base, std::uint64_t seed,
                   int rounds, bool traced) {
  const auto algo = algos::MakeAlgorithm("Sparta");
  sim::SimConfig config =
      driver::BenchDriver(ds).MakeSimConfig(driver::kMachineWorkers);
  config.flight.enabled = true;
  config.trace.enabled = traced;
  topk::SearchParams params = base;
  params.trace.enabled = traced;

  ServePass pass;
  for (int r = 0; r < rounds; ++r) {
    const CpuStopwatch clock;
    sim::SimExecutor executor(config);
    executor.page_cache().Reset();
    serve::Server server(
        ds.index(), *algo,
        MakeServeConfig(seed * kRounds + static_cast<std::uint64_t>(r)));
    serve::ServeResult round = server.ServeOnSim(executor, mix, params);
    const double host_s = clock.Seconds();
    pass.host_s += host_s;
    const auto answered = static_cast<double>(std::count_if(
        round.queries.begin(), round.queries.end(), Answered));
    pass.part_qps.push_back(answered / host_s);
    AddRound(pass.serve, std::move(round));

    pass.cache_hits += executor.page_cache().hits();
    pass.cache_misses += executor.page_cache().misses();
    pass.flight_events += executor.flight_recorder()->events_recorded();
    if (traced) pass.fold.Add(FoldSpans(*executor.tracer()));
  }
  for (const serve::ServedQuery& q : pass.serve.queries) {
    pass.answers.push_back(AnswerOf(q));
  }
  return pass;
}

}  // namespace

Outcome RunServeCw(const RunOptions& opt) {
  Outcome out;
  std::unique_ptr<corpus::Dataset> ds;
  std::vector<corpus::Query> mix;
  MeasureSetup(out, [&](SetupTimes& times) {
    ds.reset();
    corpus::DatasetSpec spec = corpus::ClueWebSimSpec();
    spec.page_cache_fraction = kPageCacheFraction;
    ds = LoadDataset(std::move(spec), opt, false, nullptr, times, out);
    mix = SeededTraffic(ds->queries(), kArrivals, opt.seed);
  });

  const topk::SearchParams params =
      driver::HighRecallVariants().front().params;
  // The traced comparison window is the first round: tracing every round
  // would hold every per-access span of the pass.
  const auto passes = RunPasses<ServePass>(
      opt, {.windowed = true}, out, [&](bool traced, bool window) {
        return RunServe(*ds, mix, params, opt.seed, window ? 1 : kRounds,
                        traced);
      });
  const ServePass& pass = passes.front();
  const serve::ServeResult& s = pass.serve;
  const OracleCache oracle(ds->index(), params.k, mix);

  const ServedTally tally =
      TallyServed(s.queries, mix, oracle, params.k, ds->index().num_docs(),
                  /*exact=*/false, out);
  SetEndToEndMetrics(out, tally.latencies, tally.recalls, s.GoodputQps());

  if (opt.trace) {
    const double offered = static_cast<double>(s.offered);
    std::size_t answered = 0;
    std::size_t rung_ge1 = 0;
    for (const serve::ServedQuery& q : s.queries) {
      answered += Answered(q);
      rung_ge1 += Answered(q) && q.rung >= 1;
    }
    SetQueryStatMetrics(out, tally.stats);
    SetCacheMetrics(out, pass.cache_hits, pass.cache_misses);
    SetAdmissionMetrics(out, s, tally.waits);
    out.Set("serve.max_queue_depth", static_cast<double>(s.max_queue_depth),
            "count");
    out.Set("serve.ladder_rung_ge1_frac",
            Ratio(static_cast<double>(rung_ge1),
                  static_cast<double>(answered)),
            "frac");
    out.Set("obs.flight_events_per_query",
            Ratio(static_cast<double>(pass.flight_events), offered), "count");
    out.Set("obs.anomalies", static_cast<double>(s.anomalies), "count");
    // Span metrics come from the traced window, host time per job from
    // its untraced twin.
    const ServePass& traced = passes.back();
    SetSpanMetrics(out, traced.fold,
                   static_cast<double>(traced.serve.completed),
                   passes[passes.size() - 2].host_s);
  }
  return out;
}

}  // namespace sparta::perfbench
