// cluster_hedged: serve::Coordinator over cw split into 4 shards on 4
// nodes with 2 replicas, running exact BMW. Seeded job stalls on one node
// make some shard requests straggle; a 2 ms hedge sends a duplicate to
// the other replica. Open-loop arrivals at a fixed rate; the cluster
// flight recorder is on. The only workload that runs the coordinator,
// fabric, node and breaker paths.
#include <memory>
#include <vector>

#include "baselines/registry.h"
#include "driver/bench_driver.h"
#include "driver/experiment.h"
#include "index/sharding.h"
#include "obs/critical_path.h"
#include "serve/coordinator.h"
#include "workloads.h"

namespace sparta::perfbench {
namespace {

constexpr int kShards = 4;
constexpr int kNodes = 4;
constexpr int kReplication = 2;
constexpr int kNodeWorkers = 4;
constexpr std::size_t kArrivals = 4000;
constexpr double kOfferedQps = 8000.0;
constexpr exec::VirtualTime kHedgeDelay = 2 * exec::kMillisecond;
/// The straggler: this node's jobs stall with the given odds.
constexpr int kStallNode = 1;
constexpr double kStallProb = 0.02;
constexpr exec::VirtualTime kStallNs = 4 * exec::kMillisecond;

serve::ClusterConfig MakeClusterConfig(const corpus::Dataset& ds,
                                       std::uint64_t seed, bool traced) {
  serve::ClusterConfig cfg;
  cfg.num_shards = kShards;
  cfg.num_nodes = kNodes;
  cfg.replication = kReplication;
  cfg.node_sim = driver::BenchDriver(ds).MakeSimConfig(kNodeWorkers);
  cfg.node_sim.trace.enabled = traced;
  sim::FaultConfig stalls;
  stalls.seed = seed;
  stalls.stall_prob = kStallProb;
  stalls.stall_ns = kStallNs;
  cfg.node_faults.push_back({kStallNode, stalls});
  cfg.hedge_delay = kHedgeDelay;
  cfg.arrivals.seed = seed;
  cfg.arrivals.rate_qps = kOfferedQps;
  cfg.arrivals.count = kArrivals;
  cfg.trace.enabled = traced;
  cfg.flight.enabled = true;
  return cfg;
}

/// Critical-path totals of one traced run.
struct CriticalPathSums {
  std::size_t queries = 0;
  /// Queries whose parts do not sum exactly to their end-to-end time.
  std::size_t unreconciled = 0;
  exec::VirtualTime queue = 0, retry_hedge = 0, net_request = 0,
                    service = 0, net_response = 0;
};

struct ClusterPass : Pass {
  serve::ClusterServeResult run;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t flight_events = 0;
  SpanFold fold;
  CriticalPathSums paths;
};

ClusterPass RunCluster(const corpus::Dataset& ds,
                       const index::ShardedIndex& sharded,
                       const std::vector<corpus::Query>& mix,
                       const topk::SearchParams& base, std::uint64_t seed,
                       bool traced) {
  const auto algo = algos::MakeAlgorithm("BMW");
  topk::SearchParams params = base;
  params.trace.enabled = traced;

  ClusterPass pass;
  const CpuStopwatch clock;
  serve::Cluster cluster(sharded, MakeClusterConfig(ds, seed, traced));
  serve::Coordinator coordinator(cluster, *algo);
  pass.run = coordinator.Serve(mix, params);
  pass.host_s = clock.Seconds();

  for (int n = 0; n < cluster.num_nodes(); ++n) {
    sim::SimExecutor& machine = cluster.node(n).executor();
    pass.cache_hits += machine.page_cache().hits();
    pass.cache_misses += machine.page_cache().misses();
    if (traced) pass.fold.Add(FoldSpans(*machine.tracer()));
  }
  pass.flight_events = cluster.flight_recorder()->events_recorded();
  if (traced) {
    for (const obs::CriticalPath& p :
         driver::ComputeClusterCriticalPaths(*cluster.tracer(), pass.run)) {
      const serve::ServedQuery& q = pass.run.queries[p.record];
      CriticalPathSums& s = pass.paths;
      ++s.queries;
      if (!p.found || p.queue_wait + p.Total() != q.EndToEnd()) {
        ++s.unreconciled;
      }
      s.queue += p.queue_wait;
      s.retry_hedge += p.retry_overhead;
      s.net_request += p.net_request;
      s.service += p.service;
      s.net_response += p.net_response;
    }
  }
  for (const serve::ServedQuery& q : pass.run.queries) {
    pass.answers.push_back(AnswerOf(q));
  }
  return pass;
}

}  // namespace

Outcome RunClusterHedged(const RunOptions& opt) {
  Outcome out;
  std::unique_ptr<corpus::Dataset> ds;
  std::unique_ptr<index::ShardedIndex> sharded;
  std::vector<corpus::Query> mix;
  MeasureSetup(out, [&](SetupTimes& times) {
    sharded.reset();
    ds.reset();
    ds = LoadDataset(corpus::ClueWebSimSpec(), opt, false, nullptr, times,
                     out);
    const Stopwatch shard;
    sharded = std::make_unique<index::ShardedIndex>(
        index::ShardIndex(ds->index(), kShards));
    times["index.shard_s"] = shard.Seconds();
    mix = SeededTraffic(ds->queries(), kArrivals, opt.seed);
  });

  topk::SearchParams params;
  params.k = driver::DefaultK();
  const auto passes =
      RunPasses<ClusterPass>(opt, {}, out, [&](bool traced, bool) {
        return RunCluster(*ds, *sharded, mix, params, opt.seed, traced);
      });
  const ClusterPass& pass = passes.front();
  const serve::ClusterServeResult& run = pass.run;
  const OracleCache oracle(ds->index(), params.k, mix);

  // BMW is exact: every complete, full-coverage answer is checked.
  const ServedTally tally =
      TallyServed(run.queries, mix, oracle, params.k, ds->index().num_docs(),
                  /*exact=*/true, out);
  SetEndToEndMetrics(out, tally.latencies, tally.recalls, run.GoodputQps());

  if (opt.trace) {
    const double offered = static_cast<double>(run.offered);
    SetQueryStatMetrics(out, tally.stats);
    SetCacheMetrics(out, pass.cache_hits, pass.cache_misses);
    SetAdmissionMetrics(out, run, tally.waits);
    out.Set("serve.coordinator.rpcs_per_query",
            Ratio(static_cast<double>(run.rpcs_sent), offered), "count");
    out.Set("serve.coordinator.hedges_per_query",
            Ratio(static_cast<double>(run.hedges_sent), offered), "count");
    out.Set("serve.coordinator.hedge_win_frac",
            Ratio(static_cast<double>(run.hedges_won),
                  static_cast<double>(run.hedges_sent)),
            "frac");
    out.Set("serve.coordinator.retries", static_cast<double>(run.retries),
            "count");
    out.Set("serve.coordinator.rpc_timeouts",
            static_cast<double>(run.rpc_timeouts), "count");
    out.Set("serve.coordinator.breaker_skips",
            static_cast<double>(run.breaker_skips), "count");
    out.Set("serve.coordinator.min_coverage", run.min_coverage, "frac");
    out.Set("obs.flight_events_per_query",
            Ratio(static_cast<double>(pass.flight_events), offered), "count");
    out.Set("obs.anomalies", static_cast<double>(run.anomalies), "count");

    const ClusterPass& traced = passes.back();
    const CriticalPathSums& cp = traced.paths;
    if (cp.unreconciled > 0) {
      out.Problem(std::to_string(cp.unreconciled) +
                  " critical paths do not sum to their end-to-end latency");
    }
    const double n = static_cast<double>(std::max<std::size_t>(cp.queries, 1));
    const std::pair<const char*, exec::VirtualTime> parts[] = {
        {"serve.coordinator.cp_queue_virtual_ms", cp.queue},
        {"serve.coordinator.cp_retry_hedge_virtual_ms", cp.retry_hedge},
        {"serve.coordinator.cp_net_request_virtual_ms", cp.net_request},
        {"serve.coordinator.cp_service_virtual_ms", cp.service},
        {"serve.coordinator.cp_net_response_virtual_ms", cp.net_response},
    };
    for (const auto& [name, ns] : parts) out.Set(name, Ms(ns) / n, "ms");
    SetSpanMetrics(out, traced.fold, static_cast<double>(run.completed),
                   pass.host_s);
  }
  return out;
}

}  // namespace sparta::perfbench
