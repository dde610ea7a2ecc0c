#include "serve/server.h"

#include <algorithm>
#include <deque>

#include "obs/trace.h"
#include "serve/policy.h"
#include "util/common.h"

namespace sparta::serve {
namespace {

using topk::AdmissionOutcome;

}  // namespace

ServeResult Server::ServeOnSim(sim::SimExecutor& executor,
                               std::span<const std::vector<TermId>> queries,
                               const topk::SearchParams& base_params) {
  SPARTA_CHECK(!queries.empty());
  const auto arrivals = GenerateArrivals(config_.arrivals);
  ServeResult result;
  result.queries.resize(arrivals.size());
  result.rung_dispatches.assign(
      std::max<std::size_t>(1, config_.ladder.num_rungs()), 0);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    result.queries[i].arrival = arrivals[i];
    result.queries[i].query_index = i % queries.size();
  }

  PolicyState policy(config_);
  ServeTrace strace(executor.tracer());
  obs::FlightRecorder* recorder = executor.flight_recorder();
  std::unique_ptr<SloMonitor> monitor;
  if (config_.slo_monitor.enabled) {
    monitor = std::make_unique<SloMonitor>(config_.slo_monitor,
                                           config_.slo);
  }
  std::uint64_t breaker_trips_seen = 0;

  struct Flight {
    std::size_t record = 0;
    std::unique_ptr<exec::QueryContext> ctx;
    std::unique_ptr<topk::QueryRun> run;
  };
  std::vector<Flight> flights;
  flights.reserve(arrivals.size());
  std::vector<std::size_t> active;  // unharvested indices into flights
  std::deque<std::size_t> queue;    // admitted records awaiting dispatch
  std::size_t next_arrival = 0;

  // Fills a freshly-triggered machine postmortem with the serving
  // loop's state. Read-only (PeekState), so capture never perturbs the
  // run.
  const auto capture = [&](obs::Postmortem* pm, exec::VirtualTime now) {
    if (pm == nullptr) return;
    pm->state.push_back("queue=" + std::to_string(queue.size()) +
                        " active=" + std::to_string(active.size()) +
                        " arrivals_seen=" + std::to_string(next_arrival));
    if (config_.breaker_enabled) {
      const CircuitBreaker& b = policy.breaker();
      pm->state.push_back(
          std::string("breaker=") +
          CircuitBreaker::StateName(b.PeekState(now)) +
          " trips=" + std::to_string(b.trips()));
    }
    obs::MetricsRegistry reg;
    reg.GetGauge("serve.queue_depth")
        .Set(static_cast<std::int64_t>(queue.size()));
    reg.GetGauge("serve.active")
        .Set(static_cast<std::int64_t>(active.size()));
    reg.GetCounter("serve.arrivals_seen").Add(next_arrival);
    pm->metrics = reg.Snapshot();
  };

  // Completions feed the drain-rate EWMA and the breaker before any
  // decision at or after their completion time. A started query with
  // zero outstanding jobs is finished (jobs only beget jobs while
  // running); batches are processed in completion order so the
  // inter-departure estimate sees real spacing.
  const auto harvest = [&]() {
    std::vector<std::size_t> done;
    for (std::size_t i = 0; i < active.size();) {
      Flight& f = flights[active[i]];
      if (f.ctx->outstanding_jobs() == 0) {
        done.push_back(active[i]);
        active[i] = active.back();
        active.pop_back();
      } else {
        ++i;
      }
    }
    std::sort(done.begin(), done.end(),
              [&](std::size_t a, std::size_t b) {
                const auto ta = flights[a].ctx->end_time();
                const auto tb = flights[b].ctx->end_time();
                return ta != tb ? ta < tb
                                : flights[a].record < flights[b].record;
              });
    for (const std::size_t i : done) {
      Flight& f = flights[i];
      ServedQuery& rec = result.queries[f.record];
      rec.completion = f.ctx->end_time();
      rec.result = f.run->TakeResult();
      // The answer is out: free the query's docMap and snapshots now
      // (the run first, it refers to its context) rather than at the
      // end of the serve.
      f.run.reset();
      f.ctx.reset();
      rec.result.stats.latency = rec.completion - rec.dispatch;
      rec.result.stats.queue_wait = rec.QueueWait();
      rec.result.stats.admission_outcome = AdmissionOutcome::kAdmitted;
      policy.OnComplete(rec.completion, rec.completion - rec.dispatch,
                        rec.result.status, rec.probe);
      if (recorder != nullptr) {
        // Machine anomalies freeze the recorder with the evidence (the
        // query's job/io spans) still in the rings.
        obs::Postmortem* pm = nullptr;
        if (rec.result.status == topk::ResultStatus::kOom) {
          pm = recorder->Trigger(obs::AnomalyKind::kOom, rec.completion,
                                 f.record);
        } else if (rec.result.status ==
                   topk::ResultStatus::kPartialAfterFault) {
          pm = recorder->Trigger(obs::AnomalyKind::kPartialAfterFault,
                                 rec.completion, f.record);
        }
        capture(pm, rec.completion);
      }
      if (config_.breaker_enabled &&
          policy.breaker().trips() > breaker_trips_seen) {
        breaker_trips_seen = policy.breaker().trips();
        if (monitor != nullptr) {
          monitor->OnBreakerState(rec.completion, 1);
        }
        if (recorder != nullptr) {
          recorder->AddInstant(recorder->serving_track(),
                               obs::InstantKind::kBreakerState,
                               rec.completion, breaker_trips_seen);
          capture(recorder->Trigger(obs::AnomalyKind::kBreakerOpen,
                                    rec.completion, breaker_trips_seen),
                  rec.completion);
        }
      }
      if (monitor != nullptr) {
        const bool good =
            rec.result.status != topk::ResultStatus::kOom &&
            (config_.slo == exec::kNever || rec.EndToEnd() <= config_.slo);
        const SloMonitor::Breach breach =
            monitor->OnCompletion(rec.completion, rec.EndToEnd(), good);
        if (breach.fired) {
          if (strace.tracer != nullptr) {
            strace.tracer->AddInstant(strace.track,
                                      obs::InstantKind::kSloBreach,
                                      rec.completion, breach.burn_pm,
                                      breach.bucket);
          }
          if (recorder != nullptr) {
            recorder->AddInstant(recorder->serving_track(),
                                 obs::InstantKind::kSloBreach,
                                 rec.completion, breach.burn_pm,
                                 breach.bucket);
            capture(recorder->Trigger(obs::AnomalyKind::kSloBreach,
                                      rec.completion, breach.burn_pm,
                                      breach.bucket),
                    rec.completion);
          }
        }
      }
    }
  };

  const auto decide = [&](std::size_t idx) {
    ServedQuery& rec = result.queries[idx];
    const Decision d = policy.Decide(rec.arrival);
    rec.outcome = d.outcome;
    rec.probe = d.probe;
    rec.result.stats.admission_outcome = d.outcome;
    strace.OnDecision(idx, rec.arrival, d, config_.breaker_enabled);
    if (monitor != nullptr) monitor->OnOutcome(rec.arrival, d.outcome);
    if (d.outcome == AdmissionOutcome::kAdmitted) {
      queue.push_back(idx);
      result.max_queue_depth =
          std::max(result.max_queue_depth, queue.size());
    }
  };

  const auto dispatch = [&](exec::VirtualTime now) {
    const std::size_t rec_idx = queue.front();
    queue.pop_front();
    policy.OnDispatch(now);
    ServedQuery& rec = result.queries[rec_idx];
    rec.dispatch = now;
    // Rung from the post-dispatch occupancy: the pressure the *next*
    // arrival would see, which is what this query's service time
    // contributes to.
    const std::size_t rung =
        config_.ladder.PickRung(policy.ctrl().Occupancy());
    rec.rung = rung;
    ++result.rung_dispatches[std::min(rung,
                                      result.rung_dispatches.size() - 1)];
    strace.OnDispatch(rec_idx, rec.arrival, now, rung);
    topk::SearchParams params = base_params;
    if (config_.deadline_from_slo && config_.slo != exec::kNever) {
      // Slack against the *budgeted* SLO (headroom applied): a query
      // dispatched late gets a deadline that still lands it inside the
      // SLO with margin, not exactly on the boundary.
      const exec::VirtualTime slack = std::max<exec::VirtualTime>(
          1, policy.ctrl().BudgetedSlo() - rec.QueueWait());
      params = config_.ladder.Apply(rung, base_params, config_.slo, slack);
    }
    Flight f;
    f.record = rec_idx;
    f.ctx = executor.CreateQueryAt(now);
    if (params.deadline != exec::kNever) {
      f.ctx->set_deadline(now + params.deadline);
    }
    f.run = algo_.Prepare(index_, queries[rec.query_index], params, *f.ctx);
    f.run->Start();
    active.push_back(flights.size());
    flights.push_back(std::move(f));
  };

  const auto admit = [&](exec::VirtualTime now) -> bool {
    harvest();
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival] <= now) {
      decide(next_arrival++);
    }
    if (!queue.empty()) {
      dispatch(now);
    } else if (next_arrival < arrivals.size()) {
      // Idle capacity and only future arrivals: bring the next one in
      // on its own schedule (it finds an empty queue, zero wait).
      const exec::VirtualTime at = arrivals[next_arrival];
      decide(next_arrival++);
      if (!queue.empty()) dispatch(at);
    }
    return next_arrival < arrivals.size() || !queue.empty();
  };
  executor.Drain(admit);
  harvest();
  SPARTA_CHECK(queue.empty() && next_arrival == arrivals.size());
  SPARTA_CHECK(active.empty());

  FinalizeServeResult(result, policy, config_.slo);
  if (monitor != nullptr) {
    result.slo_breaches = monitor->breaches();
    result.series = monitor->series();
  }
  if (recorder != nullptr) result.anomalies = recorder->anomalies();
  return result;
}

ServeResult Server::ServeOnThreads(
    exec::ThreadedExecutor& executor,
    std::span<const std::vector<TermId>> queries,
    const topk::SearchParams& base_params) {
  SPARTA_CHECK(!queries.empty());
  const auto arrivals = GenerateArrivals(config_.arrivals);
  ServeResult result;
  result.queries.resize(arrivals.size());
  result.rung_dispatches.assign(
      std::max<std::size_t>(1, config_.ladder.num_rungs()), 0);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    result.queries[i].arrival = arrivals[i];
    result.queries[i].query_index = i % queries.size();
  }

  PolicyState policy(config_);
  // Serving-track events use the emulated serving timeline (arrival
  // schedule + measured service times), self-consistent on their own
  // track even though worker tracks run on the wall clock.
  ServeTrace strace(executor.tracer());
  std::unique_ptr<SloMonitor> monitor;
  if (config_.slo_monitor.enabled) {
    monitor = std::make_unique<SloMonitor>(config_.slo_monitor,
                                           config_.slo);
  }
  std::deque<std::size_t> queue;
  std::size_t next_arrival = 0;
  // The pool serves one query at a time (pool-per-query, the paper's
  // latency mode); the serving timeline merges the virtual arrival
  // schedule with measured wall-clock service times.
  exec::VirtualTime server_free = 0;

  const auto decide = [&](std::size_t idx) {
    ServedQuery& rec = result.queries[idx];
    const Decision d = policy.Decide(rec.arrival);
    rec.outcome = d.outcome;
    rec.probe = d.probe;
    rec.result.stats.admission_outcome = d.outcome;
    strace.OnDecision(idx, rec.arrival, d, config_.breaker_enabled);
    if (monitor != nullptr) monitor->OnOutcome(rec.arrival, d.outcome);
    if (d.outcome == AdmissionOutcome::kAdmitted) {
      queue.push_back(idx);
      result.max_queue_depth =
          std::max(result.max_queue_depth, queue.size());
    }
  };

  while (next_arrival < arrivals.size() || !queue.empty()) {
    const exec::VirtualTime next_at = next_arrival < arrivals.size()
                                          ? arrivals[next_arrival]
                                          : exec::kNever;
    if (queue.empty() || server_free > next_at) {
      decide(next_arrival++);
      continue;
    }
    const std::size_t rec_idx = queue.front();
    queue.pop_front();
    ServedQuery& rec = result.queries[rec_idx];
    const exec::VirtualTime start = std::max(server_free, rec.arrival);
    policy.OnDispatch(start);
    rec.dispatch = start;
    const std::size_t rung =
        config_.ladder.PickRung(policy.ctrl().Occupancy());
    rec.rung = rung;
    ++result.rung_dispatches[std::min(rung,
                                      result.rung_dispatches.size() - 1)];
    strace.OnDispatch(rec_idx, rec.arrival, start, rung);
    topk::SearchParams params = base_params;
    if (config_.deadline_from_slo && config_.slo != exec::kNever) {
      // Slack against the *budgeted* SLO (headroom applied): a query
      // dispatched late gets a deadline that still lands it inside the
      // SLO with margin, not exactly on the boundary.
      const exec::VirtualTime slack = std::max<exec::VirtualTime>(
          1, policy.ctrl().BudgetedSlo() - rec.QueueWait());
      params = config_.ladder.Apply(rung, base_params, config_.slo, slack);
    }
    auto ctx = executor.CreateQuery();
    if (params.deadline != exec::kNever) {
      // The threaded clock starts at 0 per query, so the relative
      // budget is the absolute deadline.
      ctx->set_deadline(params.deadline);
    }
    auto run = algo_.Prepare(index_, queries[rec.query_index], params, *ctx);
    run->Start();
    ctx->RunToCompletion();
    rec.result = run->TakeResult();
    const exec::VirtualTime service =
        std::max<exec::VirtualTime>(1, ctx->end_time());
    rec.completion = start + service;
    server_free = rec.completion;
    rec.result.stats.latency = service;
    rec.result.stats.queue_wait = rec.QueueWait();
    rec.result.stats.admission_outcome = AdmissionOutcome::kAdmitted;
    policy.OnComplete(rec.completion, service, rec.result.status,
                      rec.probe);
    if (monitor != nullptr) {
      const bool good =
          rec.result.status != topk::ResultStatus::kOom &&
          (config_.slo == exec::kNever || rec.EndToEnd() <= config_.slo);
      const SloMonitor::Breach breach =
          monitor->OnCompletion(rec.completion, rec.EndToEnd(), good);
      if (breach.fired && strace.tracer != nullptr) {
        strace.tracer->AddInstant(strace.track,
                                  obs::InstantKind::kSloBreach,
                                  rec.completion, breach.burn_pm,
                                  breach.bucket);
      }
    }
  }

  FinalizeServeResult(result, policy, config_.slo);
  if (monitor != nullptr) {
    result.slo_breaches = monitor->breaches();
    result.series = monitor->series();
  }
  return result;
}

void AddServeMetrics(const ServeResult& result,
                     obs::MetricsRegistry& reg) {
  reg.GetCounter("serve.offered").Add(result.offered);
  reg.GetCounter("serve.admitted").Add(result.admitted);
  reg.GetCounter("serve.rejected_full").Add(result.rejected_full);
  reg.GetCounter("serve.shed").Add(result.shed);
  reg.GetCounter("serve.breaker_dropped").Add(result.breaker_dropped);
  reg.GetCounter("serve.completed").Add(result.completed);
  reg.GetCounter("serve.degraded").Add(result.degraded);
  reg.GetCounter("serve.faulted").Add(result.faulted);
  reg.GetCounter("serve.oom").Add(result.oom);
  reg.GetCounter("serve.goodput").Add(result.goodput);
  reg.GetCounter("serve.breaker.trips").Add(result.breaker_trips);
  reg.GetCounter("serve.breaker.probes").Add(result.breaker_probes);
  reg.GetGauge("serve.max_queue_depth")
      .Set(static_cast<std::int64_t>(result.max_queue_depth));
  for (std::size_t r = 0; r < result.rung_dispatches.size(); ++r) {
    reg.GetCounter("serve.rung." + std::to_string(r) + ".dispatches")
        .Add(result.rung_dispatches[r]);
  }
  reg.GetHistogram("serve.e2e_ns").Merge(result.e2e_ns);
  reg.GetHistogram("serve.queue_wait_ns").Merge(result.queue_wait_ns);
}

}  // namespace sparta::serve
