#include "serve/live.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "core/snapshot_search.h"
#include "index/epoch.h"
#include "obs/trace.h"
#include "serve/policy.h"
#include "util/common.h"
#include "util/serial_domain.h"

namespace sparta::serve {
namespace {

using topk::AdmissionOutcome;

/// Driving state of one background merge, shared by its chunk jobs.
struct MergeState {
  std::unique_ptr<exec::QueryContext> ctx;
  index::IndexSnapshot snap;  ///< the {main, frozen} pair being folded
  std::uint64_t total_postings = 0;
  std::uint64_t charged = 0;
  std::uint64_t chunk_index = 0;
  exec::VirtualTime begin = 0;
  /// Self-replenishing chunk job (set once after construction).
  std::function<void(exec::WorkerContext&)> chunk;
};

}  // namespace

LiveServeResult LiveServer::ServeOnSim(
    sim::SimExecutor& executor,
    std::span<const std::vector<TermId>> queries,
    std::span<const IngestDoc> docs,
    const topk::SearchParams& base_params) {
  SPARTA_CHECK(!queries.empty());
  const auto arrivals = GenerateArrivals(config_.serve.arrivals);
  std::vector<exec::VirtualTime> doc_arrivals;
  if (!docs.empty() && config_.ingest.arrivals.count > 0) {
    doc_arrivals = GenerateArrivals(config_.ingest.arrivals);
  }

  LiveServeResult result;
  result.docs_offered = doc_arrivals.size();
  ServeResult& serve = result.serve;
  serve.queries.resize(arrivals.size());
  serve.rung_dispatches.assign(
      std::max<std::size_t>(1, config_.serve.ladder.num_rungs()), 0);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    serve.queries[i].arrival = arrivals[i];
    serve.queries[i].query_index = i % queries.size();
  }

  PolicyState policy(config_.serve);
  ServeTrace strace(executor.tracer());

  // The shared epoch lock: the release point of the snapshot-reclamation
  // protocol. Reader jobs shadow-READ their pinned epoch under it and
  // merge/refresh jobs shadow-WRITE reclaimed epochs under it, so on
  // race_check runs the detector proves reclamation never races a
  // pinned reader. The owning context is never started; it only exists
  // to mint a lock that outlives every per-query context.
  auto lock_owner = executor.CreateQueryAt(0);
  auto epoch_lock = lock_owner->MakeLock();
  index::EpochManager& epochs = live_.epochs();

  struct Flight {
    std::size_t record = 0;
    std::unique_ptr<exec::QueryContext> ctx;
    std::unique_ptr<topk::QueryRun> run;
    index::EpochManager::Pin pin;
  };
  std::vector<Flight> flights;
  flights.reserve(arrivals.size());
  std::vector<std::size_t> active;  // unharvested indices into flights
  std::deque<std::size_t> queue;    // admitted records awaiting dispatch
  std::vector<std::unique_ptr<exec::QueryContext>> ingest_flights;
  std::vector<std::shared_ptr<MergeState>> merge_flights;
  std::size_t next_arrival = 0;
  std::size_t next_doc = 0;
  bool merge_active = false;

  // Emits the reclaim instant for a Collect(worker) sweep. Callers hold
  // the epoch lock.
  const auto trace_reclaim = [&](exec::WorkerContext& worker,
                                 std::size_t reclaimed) {
    if (reclaimed == 0) return;
    if (auto* tracer = worker.tracer()) {
      tracer->AddInstant(worker.worker_id(),
                         obs::InstantKind::kEpochReclaim, worker.TraceNow(),
                         reclaimed, epochs.current_epoch());
    }
  };

  // One ingest event: a single job on its own context that adds the doc
  // to the active delta and, past the refresh threshold, freezes +
  // publishes it. All writer-domain work happens inside the job, so the
  // ingest cost lands on a simulated worker like any query work.
  const auto ingest_at = [&](exec::VirtualTime at, std::size_t i) {
    auto ctx = executor.CreateQueryAt(at);
    ctx->Submit([&, i](exec::WorkerContext& worker) {
      const IngestDoc& doc = docs[i % docs.size()];
      const util::SerialGuard guard(live_.writer());
      worker.ChargePostings(doc.terms.size());
      worker.StructureAccessMany(
          (live_.buffered_postings() + doc.terms.size()) *
              sizeof(index::RawPosting),
          /*write_shared=*/false, doc.terms.size());
      live_.Add(doc.terms, doc.doc_len);
      ++result.docs_ingested;
      if (live_.buffered_docs() <
          static_cast<std::uint32_t>(config_.ingest.refresh_every_docs)) {
        return;
      }
      const std::uint32_t fdocs = live_.buffered_docs();
      const std::uint64_t fpostings = live_.buffered_postings();
      const exec::VirtualTime f0 = worker.TraceNow();
      if (!live_.Refresh()) return;  // deferred: merge in flight
      // Freeze cost: every buffered posting is scored and re-bucketed.
      worker.ChargePostings(fpostings);
      if (auto* tracer = worker.tracer()) {
        tracer->AddSpan(worker.worker_id(), obs::SpanKind::kDeltaFreeze,
                        f0, worker.TraceNow(), fdocs, fpostings);
      }
      const exec::CtxLockGuard epoch_guard(*epoch_lock, worker);
      trace_reclaim(worker, epochs.Collect(worker));
    });
    ingest_flights.push_back(std::move(ctx));
  };

  // Begins a background merge when the frozen delta is big enough: a
  // chain of self-replenishing chunk jobs charging the fold's posting
  // and sequential-I/O cost, then a final publish step that draws the
  // injected merge faults and commits (or rolls back) build-then-swap.
  const auto maybe_start_merge = [&](exec::VirtualTime now) {
    if (!config_.ingest.merge_enabled || merge_active) return;
    auto state = std::make_shared<MergeState>();
    {
      const util::SerialGuard guard(live_.writer());
      if (!live_.CanMerge() ||
          live_.frozen_docs() <
              static_cast<std::uint32_t>(config_.ingest.merge_min_docs)) {
        return;
      }
      state->snap = live_.BeginMerge();
    }
    merge_active = true;
    state->total_postings = state->snap.main->total_postings() +
                            state->snap.delta->total_postings();
    state->begin = now;
    state->ctx = executor.CreateQueryAt(now);
    state->chunk = [&, state](exec::WorkerContext& worker) {
      const std::uint64_t remaining =
          state->total_postings - state->charged;
      const std::uint64_t n = std::min<std::uint64_t>(
          std::max<std::uint64_t>(1, config_.ingest.merge_chunk_postings),
          remaining);
      const exec::VirtualTime c0 = worker.TraceNow();
      if (n > 0) {
        // Fold cost: decode + re-emit n postings, reading the sources
        // sequentially through the page-cache model.
        worker.ChargePostings(n);
        worker.IoSequential(state->charged * sizeof(index::Posting),
                            n * sizeof(index::Posting));
        state->charged += n;
      }
      if (auto* tracer = worker.tracer()) {
        tracer->AddSpan(worker.worker_id(), obs::SpanKind::kMergeBuild, c0,
                        worker.TraceNow(), state->chunk_index, n);
      }
      ++state->chunk_index;
      if (state->charged < state->total_postings) {
        state->ctx->Submit(state->chunk);
        return;
      }

      // Final step: draw the seeded merge faults, fold, and commit.
      bool abort_fault = false;
      bool torn_fault = false;
      if (auto* injector = executor.fault_injector()) {
        abort_fault = injector->OnMergeAbort(worker.worker_id(),
                                             worker.Now());
        if (!abort_fault) {
          torn_fault = injector->OnMergeWrite(worker.worker_id(),
                                              worker.Now());
        }
      }
      MergeRecord record;
      record.begin = state->begin;
      record.docs = state->snap.num_docs();
      {
        const util::SerialGuard guard(live_.writer());
        index::InvertedIndex merged = index::MergeSegments(
            *state->snap.main, *state->snap.delta);
        record.outcome = live_.CommitMerge(std::move(merged), abort_fault,
                                           torn_fault);
      }
      record.end = worker.TraceNow();
      record.epoch = epochs.current_epoch();
      if (auto* tracer = worker.tracer()) {
        if (record.outcome == index::MergeOutcome::kCommitted) {
          tracer->AddInstant(worker.worker_id(),
                             obs::InstantKind::kMergePublish, record.end,
                             record.epoch, record.docs);
        } else {
          tracer->AddInstant(worker.worker_id(),
                             obs::InstantKind::kMergeAbort, record.end,
                             record.epoch,
                             static_cast<std::uint64_t>(record.outcome));
        }
      }
      result.merges.push_back(record);
      {
        const exec::CtxLockGuard epoch_guard(*epoch_lock, worker);
        trace_reclaim(worker, epochs.Collect(worker));
      }
      merge_active = false;
    };
    state->ctx->Submit(state->chunk);
    merge_flights.push_back(std::move(state));
  };

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
      ServedQuery& rec = serve.queries[f.record];
      rec.completion = f.ctx->end_time();
      rec.result = f.run->TakeResult();
      // Free the answered query's state now (run before context, and
      // both before the pin they read through).
      f.run.reset();
      f.ctx.reset();
      rec.result.stats.latency = rec.completion - rec.dispatch;
      rec.result.stats.queue_wait = rec.QueueWait();
      rec.result.stats.admission_outcome = AdmissionOutcome::kAdmitted;
      f.pin.Release();  // the drained query unpins its snapshot
      policy.OnComplete(rec.completion, rec.completion - rec.dispatch,
                        rec.result.status, rec.probe);
    }
    std::erase_if(ingest_flights, [](const auto& ctx) {
      return ctx->outstanding_jobs() == 0;
    });
    // A drained merge's chunk closure captures its own MergeState
    // (shared_ptr) so the chain can resubmit itself; clear it here to
    // break that cycle, or the state (and its pinned snapshot) leaks.
    std::erase_if(merge_flights, [](const auto& state) {
      if (state->ctx->outstanding_jobs() != 0) return false;
      state->chunk = nullptr;
      return true;
    });
  };

  const auto decide = [&](std::size_t idx) {
    ServedQuery& rec = serve.queries[idx];
    const Decision d = policy.Decide(rec.arrival);
    rec.outcome = d.outcome;
    rec.probe = d.probe;
    rec.result.stats.admission_outcome = d.outcome;
    strace.OnDecision(idx, rec.arrival, d, config_.serve.breaker_enabled);
    if (d.outcome == AdmissionOutcome::kAdmitted) {
      queue.push_back(idx);
      serve.max_queue_depth =
          std::max(serve.max_queue_depth, queue.size());
    }
  };

  const auto dispatch = [&](exec::VirtualTime now) {
    const std::size_t rec_idx = queue.front();
    queue.pop_front();
    policy.OnDispatch(now);
    ServedQuery& rec = serve.queries[rec_idx];
    rec.dispatch = now;
    const std::size_t rung =
        config_.serve.ladder.PickRung(policy.ctrl().Occupancy());
    rec.rung = rung;
    ++serve.rung_dispatches[std::min(rung,
                                     serve.rung_dispatches.size() - 1)];
    strace.OnDispatch(rec_idx, rec.arrival, now, rung);
    topk::SearchParams params = base_params;
    if (config_.serve.deadline_from_slo &&
        config_.serve.slo != exec::kNever) {
      const exec::VirtualTime slack = std::max<exec::VirtualTime>(
          1, policy.ctrl().BudgetedSlo() - rec.QueueWait());
      params = config_.serve.ladder.Apply(rung, base_params,
                                          config_.serve.slo, slack);
    }
    Flight f;
    f.record = rec_idx;
    f.ctx = executor.CreateQueryAt(now);
    if (params.deadline != exec::kNever) {
      f.ctx->set_deadline(now + params.deadline);
    }
    // Pin the published snapshot for the query's whole run; a first job
    // shadow-READs the pinned epoch under the epoch lock so race_check
    // runs verify the reclamation discipline.
    f.pin = live_.AcquireSnapshot();
    const std::uint64_t pinned_epoch = f.pin->epoch;
    f.ctx->Submit([&, pinned_epoch](exec::WorkerContext& worker) {
      const exec::CtxLockGuard epoch_guard(*epoch_lock, worker);
      epochs.ShadowPin(worker, pinned_epoch);
    });
    f.run = core::PrepareSnapshotRun(algo_, *f.pin,
                                     queries[rec.query_index], params,
                                     *f.ctx);
    f.run->Start();
    active.push_back(flights.size());
    flights.push_back(std::move(f));
  };

  const auto admit = [&](exec::VirtualTime now) -> bool {
    harvest();
    // Due events in time order; doc events before query events on ties
    // (a doc visible at t is searchable by a query arriving at t).
    while (true) {
      const exec::VirtualTime nd = next_doc < doc_arrivals.size()
                                       ? doc_arrivals[next_doc]
                                       : exec::kNever;
      const exec::VirtualTime nq = next_arrival < arrivals.size()
                                       ? arrivals[next_arrival]
                                       : exec::kNever;
      if (nd <= now && nd <= nq) {
        ingest_at(nd, next_doc++);
        continue;
      }
      if (nq <= now) {
        decide(next_arrival++);
        continue;
      }
      break;
    }
    maybe_start_merge(now);
    if (!queue.empty()) {
      dispatch(now);
    } else {
      // Idle capacity and only future events: bring the next one in on
      // its own schedule.
      const exec::VirtualTime nd = next_doc < doc_arrivals.size()
                                       ? doc_arrivals[next_doc]
                                       : exec::kNever;
      const exec::VirtualTime nq = next_arrival < arrivals.size()
                                       ? arrivals[next_arrival]
                                       : exec::kNever;
      if (nd != exec::kNever && nd <= nq) {
        ingest_at(nd, next_doc++);
      } else if (nq != exec::kNever) {
        decide(next_arrival++);
        if (!queue.empty()) dispatch(nq);
      }
    }
    return next_doc < doc_arrivals.size() ||
           next_arrival < arrivals.size() || !queue.empty();
  };
  executor.Drain(admit);
  harvest();
  SPARTA_CHECK(queue.empty() && next_arrival == arrivals.size());
  SPARTA_CHECK(active.empty());
  SPARTA_CHECK(next_doc == doc_arrivals.size());
  SPARTA_CHECK(ingest_flights.empty());
  SPARTA_CHECK(!merge_active);

  FinalizeServeResult(serve, policy, config_.serve.slo);

  {
    const util::SerialGuard guard(live_.writer());
    result.refreshes = live_.refreshes();
    result.merges_committed = live_.merges_committed();
    result.merges_aborted = live_.merges_aborted();
    result.torn_writes = live_.torn_writes();
  }
  // Host-side sweep of anything the last in-job Collect couldn't see
  // yet (no shadow events: nothing races after the drain).
  epochs.Collect();
  result.epochs_published = epochs.current_epoch();
  result.epochs_reclaimed = epochs.reclaimed();

  for (std::size_t i = 0; i < result.merges.size(); ++i) {
    if (result.merges[i].outcome == index::MergeOutcome::kCommitted) {
      continue;
    }
    for (std::size_t j = i + 1; j < result.merges.size(); ++j) {
      if (result.merges[j].outcome == index::MergeOutcome::kCommitted) {
        result.recovery_ns.push_back(result.merges[j].end -
                                     result.merges[i].end);
        break;
      }
    }
  }
  return result;
}

void AddLiveServeMetrics(const LiveServeResult& result,
                         obs::MetricsRegistry& reg) {
  AddServeMetrics(result.serve, reg);
  reg.GetCounter("live.docs.offered").Add(result.docs_offered);
  reg.GetCounter("live.docs.ingested").Add(result.docs_ingested);
  reg.GetCounter("live.refreshes").Add(result.refreshes);
  reg.GetCounter("live.merges.committed").Add(result.merges_committed);
  reg.GetCounter("live.merges.aborted").Add(result.merges_aborted);
  reg.GetCounter("live.merges.torn_writes").Add(result.torn_writes);
  reg.GetCounter("live.epochs.published").Add(result.epochs_published);
  reg.GetCounter("live.epochs.reclaimed").Add(result.epochs_reclaimed);
  util::Histogram recovery;
  for (const exec::VirtualTime ns : result.recovery_ns) recovery.Add(ns);
  reg.GetHistogram("live.recovery_ns").Merge(recovery);
}

}  // namespace sparta::serve
