// Serving-layer tests: seeded arrivals, admission control, the
// degradation ladder, the circuit breaker, and end-to-end open-loop
// serving on both executors.
#include <algorithm>
#include <vector>

#include "serve/policy.h"
#include "serve/server.h"
#include "test_helpers.h"

namespace sparta::test {
namespace {

using serve::AdmissionConfig;
using serve::AdmissionController;
using serve::ArrivalConfig;
using serve::ArrivalKind;
using serve::BreakerConfig;
using serve::CircuitBreaker;
using serve::DegradationLadder;
using serve::GenerateArrivals;
using serve::ServeConfig;
using serve::ServeResult;
using topk::AdmissionOutcome;

// ---------------------------------------------------------------------
// Arrival generation
// ---------------------------------------------------------------------

TEST(ArrivalsTest, PoissonSeededReplayIsBitIdentical) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kPoisson;
  config.seed = 42;
  config.rate_qps = 5000.0;
  config.count = 2000;
  const auto a = GenerateArrivals(config);
  const auto b = GenerateArrivals(config);
  ASSERT_EQ(a.size(), config.count);
  EXPECT_EQ(a, b);  // bit-identical replay

  config.seed = 43;
  const auto c = GenerateArrivals(config);
  EXPECT_NE(a, c);
}

TEST(ArrivalsTest, BurstySeededReplayIsBitIdentical) {
  ArrivalConfig config;
  config.kind = ArrivalKind::kBursty;
  config.seed = 7;
  config.rate_qps = 2000.0;
  config.count = 1500;
  const auto a = GenerateArrivals(config);
  const auto b = GenerateArrivals(config);
  EXPECT_EQ(a, b);
}

TEST(ArrivalsTest, SchedulesAreStrictlyIncreasingAtMeanRate) {
  for (const auto kind : {ArrivalKind::kPoisson, ArrivalKind::kBursty}) {
    ArrivalConfig config;
    config.kind = kind;
    config.seed = 11;
    config.rate_qps = 10'000.0;
    config.count = 5000;
    const auto plan = GenerateArrivals(config);
    ASSERT_EQ(plan.size(), config.count);
    EXPECT_GT(plan.front(), 0);
    for (std::size_t i = 1; i < plan.size(); ++i) {
      EXPECT_LT(plan[i - 1], plan[i]);
    }
    // Long-run rate within 15% of nominal for both processes.
    const double seconds = static_cast<double>(plan.back()) / 1e9;
    const double rate = static_cast<double>(plan.size()) / seconds;
    EXPECT_NEAR(rate, config.rate_qps, 0.15 * config.rate_qps);
  }
}

TEST(ArrivalsTest, BurstyIsBurstierThanPoisson) {
  ArrivalConfig config;
  config.seed = 13;
  config.rate_qps = 5000.0;
  config.count = 4000;
  config.kind = ArrivalKind::kPoisson;
  const auto poisson = GenerateArrivals(config);
  config.kind = ArrivalKind::kBursty;
  config.burst_rate_factor = 10.0;
  const auto bursty = GenerateArrivals(config);

  // Squared-coefficient-of-variation of inter-arrival gaps: ~1 for
  // Poisson, substantially larger for the MMPP.
  const auto scv = [](const std::vector<exec::VirtualTime>& plan) {
    double mean = 0.0, m2 = 0.0;
    const double n = static_cast<double>(plan.size() - 1);
    for (std::size_t i = 1; i < plan.size(); ++i) {
      mean += static_cast<double>(plan[i] - plan[i - 1]);
    }
    mean /= n;
    for (std::size_t i = 1; i < plan.size(); ++i) {
      const double d = static_cast<double>(plan[i] - plan[i - 1]) - mean;
      m2 += d * d;
    }
    return m2 / n / (mean * mean);
  };
  EXPECT_NEAR(scv(poisson), 1.0, 0.3);
  EXPECT_GT(scv(bursty), 2.0);
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

TEST(AdmissionTest, RejectsWhenFullAndShedsOnPredictedWait) {
  AdmissionConfig config;
  config.queue_capacity = 2;
  config.shed_predicted_wait = true;
  config.initial_departure_gap_ns = 4 * exec::kMillisecond;
  config.initial_service_ns = exec::kMillisecond;
  const exec::VirtualTime slo = 10 * exec::kMillisecond;
  AdmissionController ctrl(config, slo);

  // Depth 0: predicted wait 0 + service 1ms <= 10ms -> admit.
  EXPECT_EQ(ctrl.Decide(0), AdmissionOutcome::kAdmitted);
  // Depth 1: predicted wait 4ms + 1ms <= 10ms -> admit.
  EXPECT_EQ(ctrl.Decide(0), AdmissionOutcome::kAdmitted);
  // Queue full at capacity 2 -> reject regardless of estimates.
  EXPECT_EQ(ctrl.Decide(0), AdmissionOutcome::kRejectedFull);

  // Drain one; depth 1 again, but now with a slower learned drain rate
  // the predicted wait forfeits the SLO -> shed.
  ctrl.OnDispatch(0);
  AdmissionConfig slow = config;
  slow.initial_departure_gap_ns = 12 * exec::kMillisecond;
  AdmissionController slow_ctrl(slow, slo);
  EXPECT_EQ(slow_ctrl.Decide(0), AdmissionOutcome::kAdmitted);
  EXPECT_EQ(slow_ctrl.Decide(0), AdmissionOutcome::kShedPredictedWait);
}

TEST(AdmissionTest, SheddingIsMonotoneInQueueDepth) {
  // With fixed drain estimates, if depth d sheds then every depth > d
  // sheds: predicted wait is linear in depth.
  AdmissionConfig config;
  config.queue_capacity = 100;
  config.initial_departure_gap_ns = exec::kMillisecond;
  config.initial_service_ns = exec::kMillisecond;
  AdmissionController ctrl(config, 6 * exec::kMillisecond);
  std::size_t admitted = 0;
  bool seen_shed = false;
  for (int i = 0; i < 20; ++i) {
    const auto outcome = ctrl.Decide(0);
    if (outcome == AdmissionOutcome::kAdmitted) {
      EXPECT_FALSE(seen_shed) << "admit after shed at depth " << i;
      ++admitted;
    } else {
      EXPECT_EQ(outcome, AdmissionOutcome::kShedPredictedWait);
      seen_shed = true;
    }
  }
  // Sheds once depth * 1ms + 1ms > 6ms, i.e. from depth 6 on.
  EXPECT_EQ(admitted, 6u);
  EXPECT_TRUE(seen_shed);
}

TEST(AdmissionTest, EwmaTracksObservedDepartures) {
  AdmissionConfig config;
  config.ewma_alpha = 0.5;
  config.initial_departure_gap_ns = exec::kMillisecond;
  AdmissionController ctrl(config, exec::kNever);
  // Departures 2ms apart pull the gap estimate from 1ms toward 2ms.
  ctrl.OnComplete(10 * exec::kMillisecond, exec::kMillisecond);
  ctrl.OnComplete(12 * exec::kMillisecond, exec::kMillisecond);
  ctrl.OnComplete(14 * exec::kMillisecond, exec::kMillisecond);
  (void)ctrl.Decide(0);  // depth 1
  const auto wait = ctrl.PredictedWait();
  EXPECT_GT(wait, exec::kMillisecond * 3 / 2);
  EXPECT_LT(wait, 2 * exec::kMillisecond);
}

// ---------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------

TEST(LadderTest, PicksRungByOccupancyAndTightensBudgets) {
  const auto ladder = DegradationLadder::Default();
  EXPECT_EQ(ladder.PickRung(0.0), 0u);
  EXPECT_EQ(ladder.PickRung(0.24), 0u);
  EXPECT_EQ(ladder.PickRung(0.30), 1u);
  EXPECT_EQ(ladder.PickRung(0.60), 2u);
  EXPECT_EQ(ladder.PickRung(1.00), 3u);

  topk::SearchParams base;
  base.k = 10;
  const exec::VirtualTime slo = 20 * exec::kMillisecond;
  exec::VirtualTime prev = exec::kNever;
  double prev_f = 0.0, prev_p = 2.0;
  for (std::size_t rung = 0; rung < ladder.num_rungs(); ++rung) {
    const auto params = ladder.Apply(rung, base, slo, slo);
    EXPECT_LT(params.deadline, prev) << "rung " << rung;
    EXPECT_GE(params.f, std::max(prev_f, 1.0));
    EXPECT_LE(params.p, prev_p);
    prev = params.deadline;
    prev_f = params.f;
    prev_p = params.p;
  }
}

TEST(LadderTest, SlackCapsDeadline) {
  const auto ladder = DegradationLadder::Default();
  topk::SearchParams base;
  const exec::VirtualTime slo = 20 * exec::kMillisecond;
  // A query that already burned most of its SLO in the queue gets only
  // the remaining slack.
  const auto params =
      ladder.Apply(0, base, slo, /*slack=*/2 * exec::kMillisecond);
  EXPECT_EQ(params.deadline, 2 * exec::kMillisecond);
  // Disabled ladder: deadline = min(slo, slack), params untouched.
  const DegradationLadder off;
  const auto p2 = off.Apply(0, base, slo, exec::kMillisecond);
  EXPECT_EQ(p2.deadline, exec::kMillisecond);
  EXPECT_EQ(p2.f, base.f);
  EXPECT_EQ(p2.p, base.p);
}

// ---------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------

TEST(BreakerTest, TripsHalfOpensProbesAndCloses) {
  BreakerConfig config;
  config.failure_threshold = 3;
  config.window_ns = 10 * exec::kMillisecond;
  config.open_ns = 5 * exec::kMillisecond;
  config.probe_successes_to_close = 2;
  CircuitBreaker breaker(config);
  const exec::VirtualTime ms = exec::kMillisecond;

  // Two failures inside the window: still closed.
  breaker.OnFailure(1 * ms);
  breaker.OnFailure(2 * ms);
  EXPECT_EQ(breaker.state(2 * ms), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Admit(2 * ms));
  // Third failure trips it.
  breaker.OnFailure(3 * ms);
  EXPECT_EQ(breaker.state(3 * ms), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Admit(4 * ms));
  EXPECT_EQ(breaker.trips(), 1u);

  // After the cooloff: half-open, exactly one probe at a time.
  EXPECT_EQ(breaker.state(9 * ms), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.WouldProbe(9 * ms));
  EXPECT_TRUE(breaker.Admit(9 * ms));
  EXPECT_FALSE(breaker.WouldProbe(9 * ms));
  EXPECT_FALSE(breaker.Admit(9 * ms));  // probe slot taken

  // Probe succeeds; still half-open (needs 2), second probe closes it.
  breaker.OnSuccess(10 * ms, /*probe=*/true);
  EXPECT_EQ(breaker.state(10 * ms), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.Admit(10 * ms));
  breaker.OnSuccess(11 * ms, /*probe=*/true);
  EXPECT_EQ(breaker.state(11 * ms), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.probes(), 2u);
}

TEST(BreakerTest, ProbeFailureReopensAndWindowExpires) {
  BreakerConfig config;
  config.failure_threshold = 2;
  config.window_ns = 10 * exec::kMillisecond;
  config.open_ns = 5 * exec::kMillisecond;
  CircuitBreaker breaker(config);
  const exec::VirtualTime ms = exec::kMillisecond;

  breaker.OnFailure(0);
  breaker.OnFailure(1 * ms);
  ASSERT_EQ(breaker.state(1 * ms), CircuitBreaker::State::kOpen);
  // Half-open probe fails: full cooloff again.
  ASSERT_TRUE(breaker.Admit(7 * ms));
  breaker.OnFailure(8 * ms, /*probe=*/true);
  EXPECT_EQ(breaker.state(8 * ms), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);

  // Old failures age out of the sliding window: two failures 20ms apart
  // do not trip a fresh breaker.
  CircuitBreaker fresh(config);
  fresh.OnFailure(0);
  fresh.OnFailure(20 * ms);
  EXPECT_EQ(fresh.state(20 * ms), CircuitBreaker::State::kClosed);

  // A pre-trip straggler completing during half-open (probe=false) must
  // not touch the probe slot.
  CircuitBreaker strag(config);
  strag.OnFailure(0);
  strag.OnFailure(1 * ms);
  ASSERT_EQ(strag.state(7 * ms), CircuitBreaker::State::kHalfOpen);
  strag.OnSuccess(7 * ms, /*probe=*/false);
  strag.OnFailure(7 * ms, /*probe=*/false);
  EXPECT_EQ(strag.state(7 * ms), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(strag.WouldProbe(7 * ms));
}

TEST(BreakerPolicyTest, IsMachineFailureClassification) {
  // Deadline degradation is a policy outcome; only fault escalation and
  // OOM are machine failures from the breaker's point of view.
  EXPECT_FALSE(serve::IsMachineFailure(topk::ResultStatus::kComplete));
  EXPECT_FALSE(
      serve::IsMachineFailure(topk::ResultStatus::kDeadlineDegraded));
  EXPECT_TRUE(
      serve::IsMachineFailure(topk::ResultStatus::kPartialAfterFault));
  EXPECT_TRUE(serve::IsMachineFailure(topk::ResultStatus::kOom));
}

// Probe-slot accounting through the shared policy layer: every probe
// completion — success, deadline-degraded, or faulted — must return the
// half-open probe slot, or the breaker wedges with the slot claimed and
// no probe in flight (dropping all traffic forever).
TEST(BreakerPolicyTest, DegradedProbeReleasesSlotAndCountsTowardClose) {
  const exec::VirtualTime ms = exec::kMillisecond;
  ServeConfig config;
  config.breaker_enabled = true;
  config.breaker.failure_threshold = 2;
  config.breaker.window_ns = 10 * ms;
  config.breaker.open_ns = 5 * ms;
  config.breaker.probe_successes_to_close = 2;
  serve::PolicyState policy(config);

  // Trip with two machine failures.
  for (int i = 0; i < 2; ++i) {
    const auto d = policy.Decide(i * ms);
    ASSERT_EQ(d.outcome, AdmissionOutcome::kAdmitted);
    ASSERT_FALSE(d.probe);
    policy.OnDispatch(i * ms);
    policy.OnComplete(i * ms + ms / 2, ms / 2,
                      topk::ResultStatus::kPartialAfterFault, d.probe);
  }
  const auto dropped = policy.Decide(2 * ms);
  EXPECT_EQ(dropped.outcome, AdmissionOutcome::kBreakerDropped);
  EXPECT_EQ(dropped.breaker_state, CircuitBreaker::State::kOpen);

  // Half-open: the first arrival claims the probe slot, the second is
  // dropped while the probe is in flight.
  const auto probe1 = policy.Decide(8 * ms);
  ASSERT_EQ(probe1.outcome, AdmissionOutcome::kAdmitted);
  ASSERT_TRUE(probe1.probe);
  EXPECT_EQ(probe1.breaker_state, CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(policy.Decide(8 * ms).outcome,
            AdmissionOutcome::kBreakerDropped);
  policy.OnDispatch(8 * ms);

  // The probe comes back deadline-degraded — NOT a machine failure: it
  // must release the slot and count toward closing.
  policy.OnComplete(9 * ms, ms, topk::ResultStatus::kDeadlineDegraded,
                    probe1.probe);
  const auto probe2 = policy.Decide(9 * ms);
  ASSERT_EQ(probe2.outcome, AdmissionOutcome::kAdmitted)
      << "degraded probe completion leaked the probe slot";
  ASSERT_TRUE(probe2.probe);
  policy.OnDispatch(9 * ms);
  policy.OnComplete(10 * ms, ms, topk::ResultStatus::kComplete,
                    probe2.probe);

  // Two probe successes: closed again, normal admission.
  const auto after = policy.Decide(10 * ms);
  EXPECT_EQ(after.outcome, AdmissionOutcome::kAdmitted);
  EXPECT_FALSE(after.probe);
  EXPECT_EQ(after.breaker_state, CircuitBreaker::State::kClosed);
  EXPECT_EQ(policy.breaker().probes(), 2u);
  EXPECT_EQ(policy.breaker().trips(), 1u);
}

TEST(BreakerPolicyTest, FaultedProbeReopensWithSlotFreeNextHalfOpen) {
  const exec::VirtualTime ms = exec::kMillisecond;
  ServeConfig config;
  config.breaker_enabled = true;
  config.breaker.failure_threshold = 2;
  config.breaker.window_ns = 10 * ms;
  config.breaker.open_ns = 5 * ms;
  config.breaker.probe_successes_to_close = 2;
  serve::PolicyState policy(config);

  for (int i = 0; i < 2; ++i) {
    const auto d = policy.Decide(i * ms);
    ASSERT_EQ(d.outcome, AdmissionOutcome::kAdmitted);
    policy.OnDispatch(i * ms);
    policy.OnComplete(i * ms + ms / 2, ms / 2,
                      topk::ResultStatus::kPartialAfterFault, d.probe);
  }

  // Probe comes back with a machine failure (kPartialAfterFault): the
  // breaker re-trips immediately.
  const auto probe = policy.Decide(8 * ms);
  ASSERT_TRUE(probe.probe);
  policy.OnDispatch(8 * ms);
  policy.OnComplete(9 * ms, ms, topk::ResultStatus::kPartialAfterFault,
                    probe.probe);
  EXPECT_EQ(policy.breaker().trips(), 2u);
  EXPECT_EQ(policy.Decide(9 * ms).outcome,
            AdmissionOutcome::kBreakerDropped);

  // Next half-open window: the slot is free again (re-trip cleared it),
  // so a fresh probe is admitted.
  const auto retry = policy.Decide(15 * ms);
  EXPECT_EQ(retry.outcome, AdmissionOutcome::kAdmitted);
  EXPECT_TRUE(retry.probe);
  EXPECT_EQ(retry.breaker_state, CircuitBreaker::State::kHalfOpen);
}

// ---------------------------------------------------------------------
// End-to-end serving
// ---------------------------------------------------------------------

struct ServeFixture {
  index::InvertedIndex idx = MakeTinyIndex();
  std::unique_ptr<topk::Algorithm> algo = algos::MakeAlgorithm("Sparta");
  std::vector<std::vector<TermId>> queries;
  topk::SearchParams params;
  exec::VirtualTime mean_service = 0;

  ServeFixture() {
    for (std::uint64_t salt : {0u, 3u, 11u, 17u}) {
      queries.push_back(PickQueryTerms(idx, 4, salt));
    }
    params.k = 10;
    // One reference execution to scale arrival rates off.
    sim::SimConfig config;
    config.num_workers = 4;
    sim::SimExecutor executor(config);
    auto ctx = executor.CreateQuery();
    (void)algo->Run(idx, queries[0], params, *ctx);
    mean_service = ctx->end_time() - ctx->start_time();
    SPARTA_CHECK(mean_service > 0);
  }

  /// Offered rate of `x` times the single-query-at-a-time service rate.
  /// With 4 workers, anything >= 8x is overload by construction (the
  /// machine cannot drain more than workers x the serial rate).
  double Rate(double x) const {
    return x * 1e9 / static_cast<double>(mean_service);
  }

  ServeResult RunSim(const ServeConfig& sc, int workers = 4) const {
    sim::SimConfig config;
    config.num_workers = workers;
    sim::SimExecutor executor(config);
    serve::Server server(idx, *algo, sc);
    return server.ServeOnSim(executor, queries, params);
  }
};

void CheckInvariants(const ServeResult& r, const ServeConfig& sc) {
  EXPECT_EQ(r.offered, r.queries.size());
  EXPECT_EQ(r.offered,
            r.admitted + r.shed + r.rejected_full + r.breaker_dropped);
  EXPECT_EQ(r.completed, r.admitted);  // sim drains everything admitted
  EXPECT_LE(r.max_queue_depth, sc.admission.queue_capacity);
  EXPECT_EQ(r.e2e_ns.count(), r.completed);
  std::size_t rung_total = 0;
  for (const auto n : r.rung_dispatches) rung_total += n;
  EXPECT_EQ(rung_total, r.admitted);
  for (const auto& q : r.queries) {
    if (q.outcome == AdmissionOutcome::kAdmitted) {
      EXPECT_GE(q.dispatch, q.arrival);
      EXPECT_GE(q.completion, q.dispatch);
      EXPECT_EQ(q.result.stats.queue_wait, q.dispatch - q.arrival);
      EXPECT_EQ(q.result.stats.admission_outcome,
                AdmissionOutcome::kAdmitted);
    } else {
      EXPECT_EQ(q.dispatch, -1);
      EXPECT_EQ(q.completion, -1);
    }
  }
}

TEST(ServeSimTest, QueueBoundHoldsUnderOverload) {
  const ServeFixture fx;
  ServeConfig sc;
  sc.arrivals.seed = 5;
  sc.arrivals.rate_qps = fx.Rate(16.0);  // >= 2x capacity by construction
  sc.arrivals.count = 120;
  sc.slo = 50 * fx.mean_service;
  sc.admission.queue_capacity = 8;
  sc.admission.shed_predicted_wait = false;  // stress reject-on-full
  sc.deadline_from_slo = false;
  const auto r = fx.RunSim(sc);
  CheckInvariants(r, sc);
  EXPECT_GT(r.rejected_full, 0u);
  EXPECT_GT(r.admitted, 0u);
  EXPECT_EQ(r.max_queue_depth, sc.admission.queue_capacity);
}

TEST(ServeSimTest, HarvestFreesEachServedQuery) {
  // A served query's run and context are freed when it is harvested, so
  // the runs alive at once stay near the queries in flight. Kept until
  // the serve ends, they would grow with every admitted arrival.
  const ServeFixture fx;
  const test::CountingAlgorithm counting(*fx.algo);
  ServeConfig sc;
  sc.arrivals.seed = 31;
  sc.arrivals.rate_qps = fx.Rate(2.0);
  sc.arrivals.count = 300;
  sc.slo = 50 * fx.mean_service;
  sim::SimConfig config;
  config.num_workers = 4;
  sim::SimExecutor executor(config);
  serve::Server server(fx.idx, counting, sc);
  const auto r = server.ServeOnSim(executor, fx.queries, fx.params);
  CheckInvariants(r, sc);
  EXPECT_EQ(counting.prepared(), r.admitted);
  EXPECT_GT(r.admitted, 250u);
  // The simulator admits only while fewer jobs than workers wait, so a
  // few queries per worker is the most that can be in flight.
  EXPECT_LE(counting.peak_live(), 2u * config.num_workers);
  EXPECT_EQ(counting.live(), 0u);
}

TEST(ServeSimTest, SheddingMonotoneInOfferedLoad) {
  const ServeFixture fx;
  std::size_t prev_turned_away = 0;
  double prev_wait = 0.0;
  for (const double x : {8.0, 16.0, 32.0}) {
    ServeConfig sc;
    sc.arrivals.seed = 9;
    sc.arrivals.rate_qps = fx.Rate(x);
    sc.arrivals.count = 100;
    sc.slo = 30 * fx.mean_service;
    sc.admission.queue_capacity = 32;
    sc.admission.initial_service_ns = fx.mean_service;
    sc.admission.initial_departure_gap_ns = fx.mean_service / 4;
    sc.ladder = DegradationLadder::Default();
    const auto r = fx.RunSim(sc);
    CheckInvariants(r, sc);
    const std::size_t turned_away =
        r.shed + r.rejected_full + r.breaker_dropped;
    EXPECT_GE(turned_away, prev_turned_away)
        << "turned-away count must grow with offered load (x=" << x << ")";
    prev_turned_away = turned_away;
    // Admitted queries keep their end-to-end latency bounded: mean wait
    // cannot exceed what the shed threshold allows.
    if (!r.queue_wait_ns.empty()) {
      prev_wait = std::max(prev_wait, r.queue_wait_ns.Mean());
      EXPECT_LE(r.queue_wait_ns.Max(), sc.slo);
    }
  }
  EXPECT_GT(prev_turned_away, 0u);
}

TEST(ServeSimTest, LadderEngagesUnderPressure) {
  const ServeFixture fx;
  ServeConfig sc;
  sc.arrivals.seed = 21;
  sc.arrivals.rate_qps = fx.Rate(24.0);
  sc.arrivals.count = 150;
  sc.slo = 40 * fx.mean_service;
  sc.admission.queue_capacity = 16;
  sc.admission.initial_service_ns = fx.mean_service;
  sc.ladder = DegradationLadder::Default();
  const auto r = fx.RunSim(sc);
  CheckInvariants(r, sc);
  ASSERT_EQ(r.rung_dispatches.size(), 4u);
  // Sustained overload must push dispatches past rung 0.
  EXPECT_GT(r.rung_dispatches[1] + r.rung_dispatches[2] +
                r.rung_dispatches[3],
            0u);
}

TEST(ServeSimTest, SeededServeReplaysDeterministically) {
  // The simulator's contract (sim_executor.h) is bit-reproducible
  // result sets with virtual latencies reproducible to ~0.1% (heap
  // layout shifts coherence-line addresses run to run). So the serve
  // trace is compared at that strength: identical admission outcomes
  // and result sets, timestamps within 1%. The policy is configured
  // away from decision thresholds (ample queue, generous SLO) so the
  // latency wobble cannot flip an admission decision; threshold
  // sensitivity under pressure is exercised by the other tests.
  const ServeFixture fx;
  ServeConfig sc;
  sc.arrivals.seed = 3;
  sc.arrivals.rate_qps = fx.Rate(6.0);
  sc.arrivals.count = 80;
  sc.slo = 1000 * fx.mean_service;
  sc.admission.queue_capacity = 80;  // never full
  sc.admission.initial_service_ns = fx.mean_service;
  sc.deadline_from_slo = false;
  const auto a = fx.RunSim(sc);
  const auto b = fx.RunSim(sc);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  EXPECT_EQ(a.admitted, a.offered);  // nothing near a threshold
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].outcome, b.queries[i].outcome) << i;
    EXPECT_EQ(a.queries[i].arrival, b.queries[i].arrival) << i;
    EXPECT_EQ(a.queries[i].result.entries, b.queries[i].result.entries)
        << i;
    EXPECT_NEAR(static_cast<double>(a.queries[i].dispatch),
                static_cast<double>(b.queries[i].dispatch),
                0.01 * static_cast<double>(std::max<exec::VirtualTime>(
                           a.queries[i].dispatch, 1)))
        << i;
    EXPECT_NEAR(static_cast<double>(a.queries[i].completion),
                static_cast<double>(b.queries[i].completion),
                0.01 * static_cast<double>(std::max<exec::VirtualTime>(
                           a.queries[i].completion, 1)))
        << i;
  }
  EXPECT_EQ(a.goodput, b.goodput);
  EXPECT_EQ(a.admitted, b.admitted);
}

TEST(ServeSimTest, BreakerTripsOnFaultStormAndRecovers) {
  const ServeFixture fx;
  ServeConfig sc;
  sc.arrivals.seed = 15;
  sc.arrivals.rate_qps = fx.Rate(2.0);
  sc.arrivals.count = 150;
  sc.slo = 100 * fx.mean_service;
  sc.admission.queue_capacity = 64;
  sc.admission.shed_predicted_wait = false;
  sc.deadline_from_slo = false;
  sc.breaker_enabled = true;
  sc.breaker.failure_threshold = 4;
  sc.breaker.window_ns = 50 * fx.mean_service;
  sc.breaker.open_ns = 20 * fx.mean_service;
  sc.breaker.probe_successes_to_close = 2;

  sim::SimConfig config;
  config.num_workers = 4;
  config.page_cache_bytes = 4096;  // keep SSD reads (and faults) coming
  config.faults.seed = 19;
  config.faults.io_error_prob = 0.5;
  config.faults.io_retry_limit = 1;
  sim::SimExecutor executor(config);
  serve::Server server(fx.idx, *fx.algo, sc);
  const auto r = server.ServeOnSim(executor, fx.queries, fx.params);
  CheckInvariants(r, sc);
  EXPECT_GT(r.faulted, 0u);
  EXPECT_GT(r.breaker_trips, 0u);
  EXPECT_GT(r.breaker_dropped, 0u);
  EXPECT_GT(r.breaker_probes, 0u);
}

TEST(ServeThreadedTest, SmokeServesWithSamePolicyPaths) {
  const ServeFixture fx;
  ServeConfig sc;
  sc.arrivals.seed = 27;
  sc.arrivals.rate_qps = 2000.0;  // wall-clock service decides pressure
  sc.arrivals.count = 24;
  sc.slo = 200 * exec::kMillisecond;
  sc.admission.queue_capacity = 16;
  sc.ladder = DegradationLadder::Default();

  exec::ThreadedExecutor::Options options;
  options.num_workers = 4;
  exec::ThreadedExecutor executor(options);
  serve::Server server(fx.idx, *fx.algo, sc);
  const auto r = server.ServeOnThreads(executor, fx.queries, fx.params);

  EXPECT_EQ(r.offered, 24u);
  EXPECT_EQ(r.offered,
            r.admitted + r.shed + r.rejected_full + r.breaker_dropped);
  EXPECT_EQ(r.completed, r.admitted);
  EXPECT_GT(r.admitted, 0u);
  EXPECT_LE(r.max_queue_depth, sc.admission.queue_capacity);
  for (const auto& q : r.queries) {
    if (q.outcome != AdmissionOutcome::kAdmitted) continue;
    EXPECT_GE(q.dispatch, q.arrival);
    EXPECT_GT(q.completion, q.dispatch);
    EXPECT_FALSE(q.result.entries.empty());
    EXPECT_EQ(q.EndToEnd(), q.QueueWait() + q.result.stats.latency);
  }
}

}  // namespace
}  // namespace sparta::test
