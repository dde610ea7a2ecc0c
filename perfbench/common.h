// Shared plumbing of the repository benchmark: run options, the metric
// sheet every workload fills, the warm dataset cache, answer checks, the
// timed-pass loop and the span fold that turns a traced run into
// per-layer self time.
//
// The benchmark measures each layer from outside: it times its own calls
// into the modules' public functions and reads the counters the program
// already returns. Nothing here changes how the program runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "corpus/datasets.h"
#include "exec/context.h"
#include "index/inverted_index.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "topk/oracle.h"
#include "topk/result.h"

namespace sparta::perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;
};

/// One named measurement with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `attempted` counts queries offered in the
/// first measured pass; `failed` those rejected, shed, dropped, out of
/// memory, or failing an answer check.
struct Outcome {
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Fingerprints of the cached datasets the run loaded.
  std::vector<std::string> datasets;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Problem(std::string what) { problems.push_back(std::move(what)); }
  bool correct() const { return problems.empty(); }
};

/// A run that cannot start (missing cache): it prints no result.
class SetupError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Host stopwatch.
class Stopwatch {
 public:
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// CPU seconds of the calling thread. Timed passes run on one host
/// thread, so their host cost is read from this clock: time the thread
/// spends descheduled on a shared host does not count.
class CpuStopwatch {
 public:
  double Seconds() const { return Now() - start_; }

 private:
  static double Now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  }
  double start_ = Now();
};

// --- statistics -----------------------------------------------------------

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// Nearest-rank percentile, as util::Histogram (0 when empty).
std::int64_t Percentile(std::vector<std::int64_t> values, double pct);
/// The same over virtual ns, in ms.
double PercentileMs(std::vector<exec::VirtualTime> values, double pct);
double Ms(exec::VirtualTime ns);
/// `part / whole`, 0 when `whole` is 0.
double Ratio(double part, double whole);
/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

// --- set-up ---------------------------------------------------------------

/// Set-up repetitions per run; setup_s and the per-layer set-up times
/// are the median over them.
inline constexpr int kSetupRepeats = 3;

/// Host seconds of named set-up steps ("index.load_s", ...).
using SetupTimes = std::map<std::string, double>;

/// Runs `setup(times)` kSetupRepeats times — each call replaces the
/// state the previous one built — and reports the median total as
/// setup_s and the median of every named step.
template <class Fn>
void MeasureSetup(Outcome& out, Fn setup) {
  std::vector<double> totals;
  std::map<std::string, std::vector<double>> steps;
  for (int r = 0; r < kSetupRepeats; ++r) {
    SetupTimes times;
    const Stopwatch clock;
    setup(times);
    totals.push_back(clock.Seconds());
    for (const auto& [name, s] : times) steps[name].push_back(s);
  }
  out.Set("setup_s", Median(totals), "s");
  for (const auto& [name, values] : steps) out.Set(name, Median(values), "s");
}

/// Builds (or re-validates) every dataset the workloads use inside
/// `data_dir` through corpus::GetDataset. Never called by a timed run.
void PrepareDatasets(const std::string& data_dir);

/// Loads the cached index of `spec` from `data_dir` and records its
/// fingerprint ("<cache stem> docs=<n> postings=<n>") in `out`. Throws
/// SetupError when the cache is missing, ambiguous or corrupt: a timed
/// run never builds a dataset.
index::InvertedIndex LoadCachedIndex(const corpus::DatasetSpec& spec,
                                     const std::string& data_dir,
                                     Outcome& out);

/// Loads `spec`'s cached index into a Dataset. Its query log is sampled
/// from the workload seed when `seeded_log`, else it is the dataset's
/// own fixed log (or a copy of `shared`). The load alone is added to
/// times["index.load_s"].
std::unique_ptr<corpus::Dataset> LoadDataset(corpus::DatasetSpec spec,
                                             const RunOptions& opt,
                                             bool seeded_log,
                                             const corpus::QueryLog* shared,
                                             SetupTimes& times, Outcome& out);

/// The traffic of an open-loop workload: the voice mix of `count`
/// queries that `log` yields for its own seed — the same queries for
/// every workload seed — in an order shuffled by `seed`. What the mix
/// contains would otherwise swing latency percentiles between seeds by
/// more than the regressions the benchmark must catch; the seed varies
/// the order and (through the serving config) the arrival times.
std::vector<corpus::Query> SeededTraffic(const corpus::QueryLog& log,
                                         std::size_t count,
                                         std::uint64_t seed);

// --- answer checks --------------------------------------------------------

/// Exact top-k per distinct query. Built after the timed passes, so its
/// threads and allocations cannot touch the heap layout the simulator's
/// coherence model sees (ROADMAP item 1).
class OracleCache {
 public:
  /// Computes the exact top-k of every distinct query in `queries`,
  /// spread over up to four host threads (the oracle is a pure function
  /// of the index; only the benchmark's own untimed step runs threads).
  OracleCache(const index::InvertedIndex& idx, int k,
              const std::vector<corpus::Query>& queries);
  /// The exact top-k of `query`, which must be one of the constructor's.
  const topk::ExactTopK& Get(const std::vector<TermId>& query) const;

 private:
  std::map<std::vector<TermId>, topk::ExactTopK> cache_;
};

/// Structural check of any answer: at most k entries, canonical order,
/// no duplicate documents, every doc id below `num_docs`.
bool WellFormed(const std::vector<topk::ResultEntry>& entries, int k,
                std::uint32_t num_docs);

/// True when an exact algorithm's answer equals the oracle's: the same
/// size, the same scores position by position, and every document in
/// the exact top-k or tied with its k-th score.
bool MatchesOracle(const topk::ExactTopK& exact,
                   const std::vector<topk::ResultEntry>& entries);

// --- timed passes ---------------------------------------------------------

/// What two runs of the same inputs must agree on, per offered query.
struct Answer {
  bool answered = false;
  std::vector<topk::ResultEntry> entries;
  std::uint64_t postings = 0;
  exec::VirtualTime latency = 0;
};

/// A served query is answered when it was admitted, completed, and did
/// not run out of memory.
bool Answered(const serve::ServedQuery& q);
/// Its Answer; the latency is arrival to answer.
Answer AnswerOf(const serve::ServedQuery& q);

/// The answered queries of a serving pass that passed their checks.
struct ServedTally {
  std::vector<exec::VirtualTime> latencies;
  std::vector<exec::VirtualTime> waits;
  std::vector<double> recalls;
  std::vector<topk::QueryStats> stats;
};

/// Counts every served query into out.attempted, and into out.failed
/// when it was not answered, its answer is malformed, or — for an exact
/// algorithm (`exact`) — its complete, full-coverage answer differs from
/// the oracle; the last two are also problems. The rest are tallied.
/// `traffic[q.query_index]` is the query each record served.
ServedTally TallyServed(const std::vector<serve::ServedQuery>& served,
                        const std::vector<corpus::Query>& traffic,
                        const OracleCache& oracle, int k,
                        std::uint32_t num_docs, bool exact, Outcome& out);

/// Two runs of one binary over the same inputs are not bit-identical
/// yet: the coherence model keys cache lines by heap address, so a
/// different heap layout (a later pass in the same process, or the
/// tracer's allocations) moves virtual latencies by about 0.1% and can
/// tip an approximate query's stopping point, changing its work. Under
/// open-loop load that shift also moves every later query's queueing.
/// The checks therefore bound the drift instead of demanding identity,
/// and report the share of queries that differ (sim.layout_divergent_frac).
///
/// Per query, for queries that ran alone on the machine: a query
/// diverges when its result set or postings differ, or its latency
/// differs by more than kLatencyJitter; at most kMaxDivergentFrac of
/// them may diverge.
inline constexpr double kLatencyJitter = 0.01;
inline constexpr double kMaxDivergentFrac = 0.01;
/// In aggregate, for every run: answered queries, total postings and
/// p50 latency must agree within this relative tolerance.
inline constexpr double kAggregateTolerance = 0.05;
/// The same for p99 latency. A nearest-rank p99 jumps to a neighbouring
/// sample when one tail query shifts, and neighbouring tail samples are
/// several percent apart.
inline constexpr double kTailTolerance = 0.10;

/// Compares `other` with `base`, records a problem when a bound above is
/// broken (`isolated`: the per-query bound applies), and returns the
/// fraction of queries that diverge (open-loop: in result set or
/// postings only, since every latency moves with the queue).
double CheckSameAnswers(const std::vector<Answer>& base,
                        const std::vector<Answer>& other, bool isolated,
                        const std::string& what, Outcome& out);

/// One pass over a workload's inputs.
struct Pass {
  /// Host CPU seconds of the pass (CpuStopwatch).
  double host_s = 0.0;
  std::vector<Answer> answers;
  /// Answered queries per host CPU second of each separately timed part
  /// of the pass (serve_cw's rounds); empty when the pass is one part.
  std::vector<double> part_qps;
};

/// How a workload's traced run is checked against its untraced run.
struct TracePlan {
  /// Queries ran alone on the machine, so each is compared on its own.
  bool isolated = false;
  /// Tracing every input would not fit in memory: the comparison runs a
  /// prefix window of the inputs twice, untraced and traced.
  bool windowed = false;
};

/// The timed phase; `run_pass(traced, window)` makes one pass.
/// Untraced runs repeat full passes until `opt.seconds` have passed (at
/// least one) and report host_qps, the median over the repeats after the
/// first pass (over their parts, where a pass times its parts
/// separately), or the first pass alone when none fit; every repeat is checked
/// against the first. Traced runs make one full untraced pass, then the
/// traced pass (after an untraced window pass when `plan.windowed`),
/// check the two against each other, and report
/// obs.trace_host_overhead_pct and sim.layout_divergent_frac. Returns
/// the first pass — the one the metrics describe — then, when traced,
/// the passes after it. A repeat is dropped once checked, so peak memory
/// does not depend on how many passes fit in `opt.seconds`.
template <class P, class RunPass>
std::vector<P> RunPasses(const RunOptions& opt, const TracePlan& plan,
                         Outcome& out, RunPass run_pass) {
  const auto add_qps = [](const P& pass, std::vector<double>& qps) {
    if (!pass.part_qps.empty()) {
      qps.insert(qps.end(), pass.part_qps.begin(), pass.part_qps.end());
      return;
    }
    std::size_t answered = 0;
    for (const Answer& a : pass.answers) answered += a.answered;
    qps.push_back(static_cast<double>(answered) / pass.host_s);
  };
  std::vector<P> passes;
  const Stopwatch clock;
  passes.push_back(run_pass(false, false));
  // The first pass pays the process's cold start (fresh pages, an empty
  // allocator), so host_qps comes from the repeats when any fit.
  std::vector<double> first_qps, repeat_qps;
  add_qps(passes.front(), first_qps);
  double divergent = 0.0;
  while (!opt.trace && clock.Seconds() < opt.seconds) {
    const P repeat = run_pass(false, false);
    add_qps(repeat, repeat_qps);
    divergent = std::max(
        divergent, CheckSameAnswers(passes.front().answers, repeat.answers,
                                    plan.isolated, "repeat pass", out));
  }
  out.Set("host_qps", Median(repeat_qps.empty() ? first_qps : repeat_qps),
          "1/s");
  if (opt.trace) {
    if (plan.windowed) passes.push_back(run_pass(false, true));
    passes.push_back(run_pass(true, plan.windowed));
    const P& base = passes[passes.size() - 2];
    const P& traced = passes.back();
    divergent = std::max(
        divergent, CheckSameAnswers(base.answers, traced.answers,
                                    plan.isolated, "traced pass", out));
    out.Set("obs.trace_host_overhead_pct",
            100.0 * (traced.host_s / base.host_s - 1.0), "%");
    out.Set("sim.layout_divergent_frac", divergent, "frac");
  }
  return passes;
}

// --- span fold ------------------------------------------------------------

/// Per-kind self time folded out of a tracer's worker tracks.
struct SpanFold {
  static constexpr int kKinds =
      static_cast<int>(obs::SpanKind::kShardService) + 1;
  exec::VirtualTime self[kKinds] = {};
  std::uint64_t count[kKinds] = {};
  /// Σ kQueueWait durations on the scheduler track (wait, not work).
  exec::VirtualTime queue_wait = 0;
  /// Largest Σ self time on any one worker track of one fold.
  exec::VirtualTime max_track_self = 0;

  exec::VirtualTime Self(obs::SpanKind kind) const {
    return self[static_cast<int>(kind)];
  }
  std::uint64_t Count(obs::SpanKind kind) const {
    return count[static_cast<int>(kind)];
  }
  /// Adds another fold (max_track_self takes the maximum).
  void Add(const SpanFold& other);
};

/// Folds every span of `tracer` into per-kind self time.
SpanFold FoldSpans(const obs::Tracer& tracer);

/// Writes the per-kind `*_virtual_ms` metrics — each the mean worker
/// time per query over `queries` — plus sim.jobs_per_query and
/// sim.host_us_per_job (`host_s` of an untraced pass doing the same jobs).
void SetSpanMetrics(Outcome& out, const SpanFold& fold, double queries,
                    double host_s);

// --- metric sheets --------------------------------------------------------

/// Writes latency_p50/p99_virtual_ms over the answered queries' virtual
/// latencies, mean recall, goodput_virtual_qps, and answered_frac from
/// out.attempted and out.failed.
void SetEndToEndMetrics(Outcome& out,
                        const std::vector<exec::VirtualTime>& latencies,
                        const std::vector<double>& recalls,
                        double goodput_qps);

/// Writes the per-query algorithm counters shared by every workload:
/// topk.postings_per_query, topk.postings_frac,
/// topk.heap_inserts_per_query and topk.docmap_peak_entries_p99.
void SetQueryStatMetrics(Outcome& out,
                         const std::vector<topk::QueryStats>& stats);

/// Writes sim.page_cache_hit_frac.
void SetCacheMetrics(Outcome& out, std::uint64_t hits, std::uint64_t misses);

/// Writes the admission metrics of a serving run (serve::ServeResult or
/// serve::ClusterServeResult): p99 queue wait over `waits`, and the
/// shed, rejected and degraded shares.
template <class Run>
void SetAdmissionMetrics(Outcome& out, const Run& run,
                         const std::vector<exec::VirtualTime>& waits) {
  const auto offered = static_cast<double>(run.offered);
  out.Set("serve.queue_wait_p99_virtual_ms", PercentileMs(waits, 99), "ms");
  out.Set("serve.shed_frac", Ratio(static_cast<double>(run.shed), offered),
          "frac");
  out.Set("serve.rejected_frac",
          Ratio(static_cast<double>(run.rejected_full), offered), "frac");
  out.Set("serve.degraded_frac",
          Ratio(static_cast<double>(run.degraded),
                static_cast<double>(run.completed)),
          "frac");
}

}  // namespace sparta::perfbench
