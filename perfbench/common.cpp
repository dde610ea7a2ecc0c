#include "common.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "index/disk_format.h"
#include "topk/recall.h"
#include "util/rng.h"

namespace sparta::perfbench {

namespace fs = std::filesystem;

void PrepareDatasets(const std::string& data_dir) {
  corpus::GetDataset(corpus::ClueWebSimSpec(), data_dir);
}

index::InvertedIndex LoadCachedIndex(const corpus::DatasetSpec& spec,
                                     const std::string& data_dir,
                                     Outcome& out) {
  std::vector<fs::path> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(data_dir, ec)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind(spec.name + "-", 0) == 0 &&
        entry.path().extension() == ".idx") {
      found.push_back(entry.path());
    }
  }
  if (found.size() != 1) {
    throw SetupError("dataset cache for '" + spec.name + "' in " + data_dir +
                     (found.empty() ? " is missing (run prepare first)"
                                    : " is ambiguous (remove stale files)"));
  }
  std::string error;
  auto idx = index::LoadIndex(found.front().string(), &error);
  if (!idx) {
    throw SetupError("cannot load " + found.front().string() + ": " + error);
  }
  const std::string fingerprint =
      found.front().stem().string() +
      " docs=" + std::to_string(idx->num_docs()) +
      " postings=" + std::to_string(idx->total_postings());
  if (std::find(out.datasets.begin(), out.datasets.end(), fingerprint) ==
      out.datasets.end()) {
    out.datasets.push_back(fingerprint);
  }
  return std::move(*idx);
}

std::unique_ptr<corpus::Dataset> LoadDataset(corpus::DatasetSpec spec,
                                             const RunOptions& opt,
                                             bool seeded_log,
                                             const corpus::QueryLog* shared,
                                             SetupTimes& times, Outcome& out) {
  const Stopwatch clock;
  index::InvertedIndex idx = LoadCachedIndex(spec, opt.data_dir, out);
  times["index.load_s"] += clock.Seconds();
  if (seeded_log) spec.queries.seed = opt.seed;
  return std::make_unique<corpus::Dataset>(std::move(spec), std::move(idx),
                                           shared);
}

std::vector<corpus::Query> SeededTraffic(const corpus::QueryLog& log,
                                         std::size_t count,
                                         std::uint64_t seed) {
  std::vector<corpus::Query> mix =
      log.VoiceMix(static_cast<int>(count), log.spec().seed);
  util::Rng rng(seed);
  for (std::size_t i = mix.size(); i > 1; --i) {
    std::swap(mix[i - 1], mix[rng.Below(i)]);
  }
  return mix;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Ratio(double part, double whole) {
  return whole != 0.0 ? part / whole : 0.0;
}

std::int64_t Percentile(std::vector<std::int64_t> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Nearest rank, as util::Histogram::Percentile.
  const double rank = pct / 100.0 * static_cast<double>(values.size());
  const auto i =
      static_cast<std::size_t>(std::max(std::ceil(rank - 1e-9), 1.0));
  return values[std::min(i, values.size()) - 1];
}

double PercentileMs(std::vector<exec::VirtualTime> values, double pct) {
  return Ms(Percentile(std::move(values), pct));
}

double Ms(exec::VirtualTime ns) { return static_cast<double>(ns) / 1e6; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

OracleCache::OracleCache(const index::InvertedIndex& idx, int k,
                         const std::vector<corpus::Query>& queries) {
  for (const corpus::Query& q : queries) cache_.try_emplace(q);
  std::vector<std::pair<const corpus::Query*, topk::ExactTopK*>> todo;
  for (auto& [query, exact] : cache_) todo.emplace_back(&query, &exact);
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&todo, &idx, k, t, threads] {
        for (std::size_t i = t; i < todo.size(); i += threads) {
          *todo[i].second = topk::ComputeExactTopK(idx, *todo[i].first, k);
        }
      });
    }
  }  // joins
}

const topk::ExactTopK& OracleCache::Get(
    const std::vector<TermId>& query) const {
  const auto it = cache_.find(query);
  if (it == cache_.end()) throw std::logic_error("query missing from oracle");
  return it->second;
}

bool WellFormed(const std::vector<topk::ResultEntry>& entries, int k,
                std::uint32_t num_docs) {
  if (entries.size() > static_cast<std::size_t>(k)) return false;
  std::set<DocId> seen;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const topk::ResultEntry& e = entries[i];
    if (e.doc >= num_docs || !seen.insert(e.doc).second) return false;
    if (i > 0) {
      const topk::ResultEntry& p = entries[i - 1];
      if (p.score < e.score || (p.score == e.score && p.doc > e.doc)) {
        return false;
      }
    }
  }
  return true;
}

bool MatchesOracle(const topk::ExactTopK& exact,
                   const std::vector<topk::ResultEntry>& entries) {
  if (entries.size() != exact.topk.size()) return false;
  std::set<DocId> good;
  for (const auto& e : exact.topk) good.insert(e.doc);
  for (const DocId d : exact.boundary) good.insert(d);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].score != exact.topk[i].score) return false;
    if (!good.contains(entries[i].doc)) return false;
  }
  return true;
}

namespace {

/// Answered count, total postings and latency percentiles of one pass.
struct Aggregate {
  double answered = 0.0;
  double postings = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

Aggregate Summarize(const std::vector<Answer>& answers) {
  Aggregate agg;
  std::vector<exec::VirtualTime> latencies;
  for (const Answer& a : answers) {
    if (!a.answered) continue;
    agg.answered += 1.0;
    agg.postings += static_cast<double>(a.postings);
    latencies.push_back(a.latency);
  }
  agg.p50 = PercentileMs(latencies, 50);
  agg.p99 = PercentileMs(latencies, 99);
  return agg;
}

}  // namespace

double CheckSameAnswers(const std::vector<Answer>& base,
                        const std::vector<Answer>& other, bool isolated,
                        const std::string& what, Outcome& out) {
  if (base.size() != other.size()) {
    out.Problem(what + ": " + std::to_string(other.size()) +
                " queries vs " + std::to_string(base.size()));
    return 1.0;
  }
  std::size_t diverged = 0;
  for (std::size_t i = 0; i < base.size(); ++i) {
    const Answer& a = base[i];
    const Answer& b = other[i];
    const double jitter =
        Ratio(std::abs(static_cast<double>(a.latency - b.latency)),
              static_cast<double>(std::max<exec::VirtualTime>(a.latency, 1)));
    diverged += a.answered != b.answered || a.entries != b.entries ||
                a.postings != b.postings ||
                (isolated && jitter > kLatencyJitter);
  }
  const double divergent = Ratio(static_cast<double>(diverged),
                                 static_cast<double>(base.size()));
  if (isolated && divergent > kMaxDivergentFrac) {
    out.Problem(what + ": " + std::to_string(diverged) +
                " queries differ in results, postings or latency");
  }
  const Aggregate x = Summarize(base);
  const Aggregate y = Summarize(other);
  struct Sum {
    const char* name;
    double base, other, tolerance;
  };
  const Sum sums[] = {
      {"answered", x.answered, y.answered, kAggregateTolerance},
      {"postings", x.postings, y.postings, kAggregateTolerance},
      {"p50 latency", x.p50, y.p50, kAggregateTolerance},
      {"p99 latency", x.p99, y.p99, kTailTolerance},
  };
  for (const Sum& s : sums) {
    const double drift = Ratio(std::abs(s.base - s.other), s.base);
    if (drift > s.tolerance) {
      out.Problem(what + ": " + s.name + " drifts by " +
                  std::to_string(100.0 * drift) + "%");
    }
  }
  return divergent;
}

bool Answered(const serve::ServedQuery& q) {
  return q.outcome == topk::AdmissionOutcome::kAdmitted &&
         q.completion >= 0 && q.result.status != topk::ResultStatus::kOom;
}

Answer AnswerOf(const serve::ServedQuery& q) {
  return {Answered(q), q.result.entries, q.result.stats.postings_processed,
          q.EndToEnd()};
}

ServedTally TallyServed(const std::vector<serve::ServedQuery>& served,
                        const std::vector<corpus::Query>& traffic,
                        const OracleCache& oracle, int k,
                        std::uint32_t num_docs, bool exact, Outcome& out) {
  ServedTally tally;
  std::size_t malformed = 0;
  std::size_t inexact = 0;
  out.attempted += served.size();
  for (const serve::ServedQuery& q : served) {
    if (!Answered(q)) {
      ++out.failed;
      continue;
    }
    const topk::ExactTopK& truth = oracle.Get(traffic[q.query_index]);
    const bool full = q.result.status == topk::ResultStatus::kComplete &&
                      q.result.stats.shard_coverage == 1.0;
    if (!WellFormed(q.result.entries, k, num_docs)) {
      ++malformed;
    } else if (exact && full && !MatchesOracle(truth, q.result.entries)) {
      ++inexact;
    } else {
      tally.latencies.push_back(q.EndToEnd());
      tally.waits.push_back(q.QueueWait());
      tally.recalls.push_back(topk::Recall(truth, q.result.entries));
      tally.stats.push_back(q.result.stats);
      continue;
    }
    ++out.failed;
  }
  if (malformed > 0) {
    out.Problem(std::to_string(malformed) + " answers are malformed");
  }
  if (inexact > 0) {
    out.Problem(std::to_string(inexact) +
                " exact full-coverage answers differ from the oracle");
  }
  return tally;
}

void SetEndToEndMetrics(Outcome& out,
                        const std::vector<exec::VirtualTime>& latencies,
                        const std::vector<double>& recalls,
                        double goodput_qps) {
  out.Set("latency_p50_virtual_ms", PercentileMs(latencies, 50), "ms");
  out.Set("latency_p99_virtual_ms", PercentileMs(latencies, 99), "ms");
  out.Set("recall", Mean(recalls), "frac");
  out.Set("goodput_virtual_qps", goodput_qps, "1/s");
  out.Set("answered_frac",
          Ratio(static_cast<double>(out.attempted - out.failed),
                static_cast<double>(out.attempted)),
          "frac");
}

void SetCacheMetrics(Outcome& out, std::uint64_t hits, std::uint64_t misses) {
  out.Set("sim.page_cache_hit_frac",
          Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
          "frac");
}

void SetQueryStatMetrics(Outcome& out,
                         const std::vector<topk::QueryStats>& stats) {
  std::vector<double> postings, frac, inserts;
  std::vector<std::int64_t> docmap;
  for (const topk::QueryStats& s : stats) {
    postings.push_back(static_cast<double>(s.postings_processed));
    frac.push_back(s.PostingsFraction());
    inserts.push_back(static_cast<double>(s.heap_inserts));
    docmap.push_back(static_cast<std::int64_t>(s.docmap_peak_entries));
  }
  out.Set("topk.postings_per_query", Mean(postings), "count");
  out.Set("topk.postings_frac", Mean(frac), "frac");
  out.Set("topk.heap_inserts_per_query", Mean(inserts), "count");
  out.Set("topk.docmap_peak_entries_p99",
          static_cast<double>(Percentile(docmap, 99)), "count");
}

void SpanFold::Add(const SpanFold& other) {
  for (int k = 0; k < kKinds; ++k) {
    self[k] += other.self[k];
    count[k] += other.count[k];
  }
  queue_wait += other.queue_wait;
  max_track_self = std::max(max_track_self, other.max_track_self);
}

SpanFold FoldSpans(const obs::Tracer& tracer) {
  SpanFold fold;
  for (int t = 0; t < tracer.num_workers(); ++t) {
    std::vector<obs::TraceEvent> spans;
    for (const obs::TraceEvent& e : tracer.track(t)) {
      if (!e.is_instant) spans.push_back(e);
    }
    // Parents before children: spans on one worker nest properly.
    std::sort(spans.begin(), spans.end(),
              [](const obs::TraceEvent& x, const obs::TraceEvent& y) {
                if (x.begin != y.begin) return x.begin < y.begin;
                return x.end > y.end;
              });
    struct Frame {
      int kind;
      exec::VirtualTime begin;
      exec::VirtualTime end;
      exec::VirtualTime child = 0;
    };
    std::vector<Frame> stack;
    exec::VirtualTime track_self = 0;
    const auto close = [&] {
      const Frame f = stack.back();
      stack.pop_back();
      const exec::VirtualTime self = (f.end - f.begin) - f.child;
      fold.self[f.kind] += self;
      track_self += self;
      if (!stack.empty()) stack.back().child += f.end - f.begin;
    };
    for (const obs::TraceEvent& e : spans) {
      while (!stack.empty() && stack.back().end <= e.begin) close();
      const int kind = static_cast<int>(e.span_kind());
      ++fold.count[kind];
      stack.push_back({kind, e.begin, e.end});
    }
    while (!stack.empty()) close();
    fold.max_track_self = std::max(fold.max_track_self, track_self);
  }
  for (const obs::TraceEvent& e : tracer.track(tracer.scheduler_track())) {
    if (!e.is_instant && e.span_kind() == obs::SpanKind::kQueueWait) {
      fold.queue_wait += e.end - e.begin;
    }
  }
  return fold;
}

void SetSpanMetrics(Outcome& out, const SpanFold& fold, double queries,
                    double host_s) {
  using obs::SpanKind;
  const double q = std::max(queries, 1.0);
  const auto per_query_ms = [&](exec::VirtualTime ns) {
    return Ms(ns) / q;
  };
  const std::pair<const char*, SpanKind> kinds[] = {
      {"topk.postings_scan_virtual_ms", SpanKind::kPostingsScan},
      {"topk.docmap_virtual_ms", SpanKind::kDocMapAccess},
      {"topk.heap_virtual_ms", SpanKind::kHeapUpdate},
      {"core.cleaner_virtual_ms", SpanKind::kCleanerPass},
      {"core.termmap_virtual_ms", SpanKind::kTermMapBuild},
      {"sim.io_read_virtual_ms", SpanKind::kIoRead},
      {"sim.lock_wait_virtual_ms", SpanKind::kLockWait},
      {"sim.job_self_virtual_ms", SpanKind::kJob},
      {"index.live.merge_build_virtual_ms", SpanKind::kMergeBuild},
      {"index.live.delta_freeze_virtual_ms", SpanKind::kDeltaFreeze},
  };
  for (const auto& [name, kind] : kinds) {
    out.Set(name, per_query_ms(fold.Self(kind)), "ms");
  }
  out.Set("sim.job_queue_wait_virtual_ms", per_query_ms(fold.queue_wait),
          "ms");
  const auto jobs = static_cast<double>(fold.Count(SpanKind::kJob));
  out.Set("sim.jobs_per_query", jobs / q, "count");
  out.Set("sim.host_us_per_job", Ratio(1e6 * host_s, jobs), "us");
}

}  // namespace sparta::perfbench
