// Fault-injection framework + resilience policy tests: FaultPlan queries,
// the timed Event wait, runtime staging-budget changes, the hardware fault
// hooks, broker outages, client retry/backoff/budget, the ingest circuit
// breaker, graceful degradation, and request conservation under every fault
// scenario.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "broker/broker.h"
#include "core/experiment.h"
#include "hw/devices.h"
#include "hw/gpu_memory.h"
#include "metrics/registry.h"
#include "models/model_zoo.h"
#include "serving/client.h"
#include "serving/server.h"
#include "sim/fault_plan.h"
#include "sim/sync.h"
#include "workload/arrivals.h"

namespace serve {
namespace {

using sim::FaultKind;
using sim::FaultPlan;
using sim::FaultWindow;

// --- FaultPlan -------------------------------------------------------------

TEST(FaultPlan, WindowQueriesRespectKindTargetAndTime) {
  FaultPlan plan;
  plan.gpu_failure(1, sim::milliseconds(10), sim::milliseconds(20));
  plan.pcie_degradation(sim::milliseconds(5), sim::milliseconds(15), 4.0);

  EXPECT_FALSE(plan.active(FaultKind::kGpuFailure, 1, sim::milliseconds(9)));
  EXPECT_TRUE(plan.active(FaultKind::kGpuFailure, 1, sim::milliseconds(10)));
  EXPECT_TRUE(plan.active(FaultKind::kGpuFailure, 1, sim::milliseconds(19)));
  EXPECT_FALSE(plan.active(FaultKind::kGpuFailure, 1, sim::milliseconds(20)));  // half-open
  EXPECT_FALSE(plan.active(FaultKind::kGpuFailure, 0, sim::milliseconds(15)));  // other target
  EXPECT_FALSE(plan.active(FaultKind::kBrokerOutage, 1, sim::milliseconds(15)));

  // kAllTargets windows cover every instance; multipliers compound.
  EXPECT_DOUBLE_EQ(plan.multiplier(FaultKind::kPcieDegradation, 0, sim::milliseconds(7)), 4.0);
  EXPECT_DOUBLE_EQ(plan.multiplier(FaultKind::kPcieDegradation, 3, sim::milliseconds(7)), 4.0);
  EXPECT_DOUBLE_EQ(plan.multiplier(FaultKind::kPcieDegradation, 0, sim::milliseconds(16)), 1.0);
  plan.pcie_degradation(sim::milliseconds(5), sim::milliseconds(15), 2.0);
  EXPECT_DOUBLE_EQ(plan.multiplier(FaultKind::kPcieDegradation, 0, sim::milliseconds(7)), 8.0);

  // active_until reports the latest covering end, or `now` when healthy.
  EXPECT_EQ(plan.active_until(FaultKind::kGpuFailure, 1, sim::milliseconds(12)),
            sim::milliseconds(20));
  EXPECT_EQ(plan.active_until(FaultKind::kGpuFailure, 1, sim::milliseconds(25)),
            sim::milliseconds(25));
}

TEST(FaultPlan, RejectsInvalidWindows) {
  FaultPlan plan;
  EXPECT_THROW(plan.add({FaultKind::kGpuFailure, 0, 10, 10, 1.0}), std::invalid_argument);
  EXPECT_THROW(plan.add({FaultKind::kGpuFailure, 0, 10, 5, 1.0}), std::invalid_argument);
  EXPECT_THROW(plan.add({FaultKind::kPcieDegradation, 0, 0, 10, 0.0}), std::invalid_argument);
  EXPECT_THROW(plan.preproc_slowdown(0, 10, 0.5), std::invalid_argument);
  EXPECT_THROW(plan.pcie_degradation(0, 10, 0.9), std::invalid_argument);
  EXPECT_THROW(plan.gpu_memory_shrink(0, 0, 10, 0.0), std::invalid_argument);
  EXPECT_THROW(plan.gpu_memory_shrink(0, 0, 10, 1.5), std::invalid_argument);
  EXPECT_THROW(plan.set_payload_corruption(1.5, 1), std::invalid_argument);
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, PayloadCorruptionIsDeterministicPerRequestId) {
  FaultPlan a;
  a.set_payload_corruption(0.1, 42);
  FaultPlan b;
  b.set_payload_corruption(0.1, 42);
  int corrupted = 0;
  for (std::uint64_t id = 0; id < 10'000; ++id) {
    EXPECT_EQ(a.corrupts_payload(id), b.corrupts_payload(id));
    EXPECT_EQ(a.corruption_stream(id), b.corruption_stream(id));
    if (a.corrupts_payload(id)) ++corrupted;
  }
  // The seeded Bernoulli draw lands near the requested probability.
  EXPECT_GT(corrupted, 700);
  EXPECT_LT(corrupted, 1300);

  FaultPlan off;
  EXPECT_FALSE(off.corrupts_payload(7));
  FaultPlan other;
  other.set_payload_corruption(0.1, 43);
  int differs = 0;
  for (std::uint64_t id = 0; id < 1000; ++id) {
    if (a.corrupts_payload(id) != other.corrupts_payload(id)) ++differs;
  }
  EXPECT_GT(differs, 0);  // the seed matters
}

TEST(FaultPlan, ScheduleTransitionsFiresBothEdges) {
  sim::Simulator sim;
  FaultPlan plan;
  plan.gpu_memory_shrink(0, sim::milliseconds(10), sim::milliseconds(20), 0.5);
  std::vector<std::pair<sim::Time, bool>> edges;
  plan.schedule_transitions(sim, [&](const FaultWindow& w, bool begin) {
    EXPECT_EQ(w.kind, FaultKind::kGpuMemoryShrink);
    edges.emplace_back(sim.now(), begin);
  });
  sim.run();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], std::make_pair(sim::milliseconds(10), true));
  EXPECT_EQ(edges[1], std::make_pair(sim::milliseconds(20), false));
}

// --- Event::wait_until -----------------------------------------------------

sim::Process wait_probe(sim::Event& ev, sim::Time deadline, bool& result, bool& resumed) {
  result = co_await ev.wait_until(deadline);
  resumed = true;
}

TEST(Event, WaitUntilTimesOutWithFalse) {
  sim::Simulator sim;
  sim::Event ev{sim};
  bool result = true, resumed = false;
  sim.spawn(wait_probe(ev, sim::milliseconds(5), result, resumed));
  sim.run();
  EXPECT_TRUE(resumed);
  EXPECT_FALSE(result);
  EXPECT_EQ(sim.now(), sim::milliseconds(5));
  ev.set();  // a late set() must not resume the waiter again
  sim.run();
}

TEST(Event, WaitUntilSeesSetBeforeDeadline) {
  sim::Simulator sim;
  sim::Event ev{sim};
  bool result = false, resumed = false;
  sim.spawn(wait_probe(ev, sim::milliseconds(50), result, resumed));
  sim.schedule_at(sim::milliseconds(3), [&] { ev.set(); });
  sim.run();
  EXPECT_TRUE(resumed);
  EXPECT_TRUE(result);
  // The stale deadline callback is a no-op; time still advances to it.
  EXPECT_EQ(sim.now(), sim::milliseconds(50));
}

TEST(Event, WaitUntilOnSetEventReturnsImmediately) {
  sim::Simulator sim;
  sim::Event ev{sim};
  ev.set();
  bool result = false, resumed = false;
  sim.spawn(wait_probe(ev, sim::milliseconds(50), result, resumed));
  sim.run();
  EXPECT_TRUE(resumed);
  EXPECT_TRUE(result);
  EXPECT_EQ(sim.now(), 0);  // the wait never suspended, no timeout was scheduled
}

TEST(Event, WaitUntilPastDeadlineIsImmediateTimeout) {
  sim::Simulator sim;
  sim::Event ev{sim};
  bool result = true, resumed = false;
  sim.spawn(wait_probe(ev, 0, result, resumed));
  sim.run();
  EXPECT_TRUE(resumed);
  EXPECT_FALSE(result);
  EXPECT_EQ(sim.now(), 0);
}

// --- GpuMemoryStager::set_budget -------------------------------------------

TEST(GpuMemoryStager, ShrinkingBudgetEvictsOldestUntilFit) {
  hw::GpuMemoryStager stager{400};
  const auto a = stager.stage(100);
  const auto b = stager.stage(100);
  const auto c = stager.stage(100);
  EXPECT_EQ(stager.resident_bytes(), 300);
  EXPECT_EQ(stager.evictions(), 0u);

  stager.set_budget(150);  // fault: eviction storm in LRU order
  EXPECT_EQ(stager.budget_bytes(), 150);
  EXPECT_EQ(stager.resident_bytes(), 100);
  EXPECT_EQ(stager.evictions(), 2u);
  EXPECT_EQ(stager.claim(a), 100);  // evicted first: pays the reload
  EXPECT_EQ(stager.claim(b), 100);
  EXPECT_EQ(stager.claim(c), 0);  // newest survived

  // Restoring the budget re-admits nothing retroactively.
  const auto d = stager.stage(140);
  stager.set_budget(400);
  EXPECT_EQ(stager.claim(d), 0);
  EXPECT_THROW(stager.set_budget(0), std::invalid_argument);
}

// --- Hardware fault hooks --------------------------------------------------

TEST(HwFaults, SlowdownsScaleServiceTimesOnlyInsideWindows) {
  sim::Simulator sim;
  FaultPlan plan;
  plan.preproc_slowdown(sim::milliseconds(10), sim::milliseconds(20), 3.0);
  plan.pcie_degradation(sim::milliseconds(10), sim::milliseconds(20), 5.0);
  plan.gpu_failure(0, sim::milliseconds(10), sim::milliseconds(20));
  hw::Platform platform{sim, {.gpu_count = 2, .faults = &plan}};

  const double preproc_before = platform.cpu().preprocess_seconds(hw::kMediumImage, 224);
  const double link_before = platform.gpu(0).link_seconds(1 << 20);
  const double host_before = platform.host_link_seconds(1 << 20);
  EXPECT_FALSE(platform.gpu(0).failed_now());

  sim.schedule_at(sim::milliseconds(15), [&] {
    EXPECT_NEAR(platform.cpu().preprocess_seconds(hw::kMediumImage, 224), 3.0 * preproc_before,
                1e-12);
    // Only the variable part of link_seconds scales exactly; the whole thing
    // must land between the healthy cost and the full 5x.
    EXPECT_GT(platform.gpu(0).link_seconds(1 << 20), 4.0 * link_before);
    EXPECT_NEAR(platform.host_link_seconds(1 << 20), 5.0 * host_before, 1e-12);
    EXPECT_TRUE(platform.gpu(0).failed_now());
    EXPECT_FALSE(platform.gpu(1).failed_now());  // per-target failure
  });
  sim.schedule_at(sim::milliseconds(25), [&] {
    EXPECT_DOUBLE_EQ(platform.cpu().preprocess_seconds(hw::kMediumImage, 224), preproc_before);
    EXPECT_FALSE(platform.gpu(0).failed_now());
  });
  sim.run();
}

// --- Broker outage ---------------------------------------------------------

sim::Process publish_one(broker::SimBroker<int>& b, int msg, bool& ok, bool& done) {
  ok = co_await b.publish(msg);
  done = true;
}

sim::Process consume_one(broker::SimBroker<int>& b, sim::Simulator& sim, sim::Time& when,
                         bool& got) {
  auto msg = co_await b.consume();
  got = msg.has_value();
  when = sim.now();
}

TEST(SimBroker, OutageFailsPublishesAndStallsDeliveries) {
  sim::Simulator sim;
  FaultPlan plan;
  plan.broker_outage(sim::milliseconds(10), sim::milliseconds(30));
  broker::SimBroker<int> broker{sim, broker::redis_profile(hw::default_calibration().broker),
                                &plan};

  // Published before the outage, consumed during it: delivery stalls until
  // the window ends.
  bool pub_ok = false, pub_done = false;
  sim.spawn(publish_one(broker, 1, pub_ok, pub_done));
  sim::Time delivered_at = 0;
  bool got = false;
  sim.schedule_at(sim::milliseconds(15), [&] { sim.spawn(consume_one(broker, sim, delivered_at, got)); });

  // Published inside the outage: rejected after paying the service time.
  bool mid_ok = true, mid_done = false;
  sim.schedule_at(sim::milliseconds(12), [&] { sim.spawn(publish_one(broker, 2, mid_ok, mid_done)); });

  sim.run();
  EXPECT_TRUE(pub_done);
  EXPECT_TRUE(pub_ok);
  ASSERT_TRUE(mid_done);
  EXPECT_FALSE(mid_ok);
  EXPECT_EQ(broker.publish_failures(), 1u);
  EXPECT_TRUE(got);
  EXPECT_GE(delivered_at, sim::milliseconds(30));
}

// --- Client retry policy ---------------------------------------------------

sim::Process drive_retrier(serving::RetryingSubmitter& retrier, hw::ImageSpec image,
                           std::uint64_t& next_id, bool& ok, bool& done) {
  ok = co_await retrier.run(image, next_id);
  done = true;
}

TEST(RetryPolicy, TimesOutBacksOffAndGivesUpAfterMaxAttempts) {
  sim::Simulator sim;
  FaultPlan plan;
  plan.gpu_failure(0, 0, sim::seconds(5.0));  // down for the whole test
  hw::Platform platform{sim, {.faults = &plan}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  cfg.audit = true;
  cfg.retry.enabled = true;
  cfg.retry.max_attempts = 3;
  cfg.retry.timeout = sim::milliseconds(20);
  cfg.retry.backoff_base = sim::milliseconds(2);
  serving::InferenceServer server{platform, cfg};
  sim::Rng rng{7};
  serving::RetryingSubmitter retrier{server, rng};
  std::uint64_t next_id = 1;
  bool ok = true, done = false;
  sim.spawn(drive_retrier(retrier, hw::kMediumImage, next_id, ok, done));
  sim.run_until(sim::seconds(1.0));
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);  // every attempt timed out against the failed GPU
  EXPECT_EQ(retrier.timeouts(), 3u);
  EXPECT_EQ(retrier.retries(), 2u);
  EXPECT_EQ(next_id, 4u);
  // Abandoned attempts are held until the GPU recovers, then complete; the
  // lifecycle audit must balance.
  sim.run();
  server.shutdown();
  ASSERT_NE(server.auditor(), nullptr);
  EXPECT_EQ(server.auditor()->violation_count(), 0u);
}

TEST(RetryPolicy, TokenBudgetBoundsRetryStorms) {
  sim::Simulator sim;
  FaultPlan plan;
  plan.gpu_failure(0, 0, sim::seconds(5.0));
  hw::Platform platform{sim, {.faults = &plan}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  cfg.retry.enabled = true;
  cfg.retry.max_attempts = 10;
  cfg.retry.timeout = sim::milliseconds(20);
  cfg.retry.backoff_base = sim::milliseconds(2);
  cfg.retry.retry_budget = 1.0;  // one retry token, never refilled
  cfg.retry.budget_refill_per_success = 0.0;
  serving::InferenceServer server{platform, cfg};
  sim::Rng rng{7};
  serving::RetryingSubmitter retrier{server, rng};
  std::uint64_t next_id = 1;
  bool ok = true, done = false;
  sim.spawn(drive_retrier(retrier, hw::kMediumImage, next_id, ok, done));
  sim.run_until(sim::seconds(1.0));
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(retrier.retries(), 1u);  // budget exhausted long before max_attempts
  EXPECT_EQ(retrier.timeouts(), 2u);
  sim.run();
  server.shutdown();
}

TEST(RetryPolicy, RetrySucceedsOnTheHealthyGpu) {
  // Round-robin routing sends the first attempt to the failed GPU 0, where it
  // holds past the client timeout; the retry lands on GPU 1 and completes.
  sim::Simulator sim;
  FaultPlan plan;
  plan.gpu_failure(0, 0, sim::seconds(5.0));
  hw::Platform platform{sim, {.gpu_count = 2, .faults = &plan}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  cfg.retry.enabled = true;
  cfg.retry.max_attempts = 3;
  cfg.retry.timeout = sim::milliseconds(50);
  cfg.retry.backoff_base = sim::milliseconds(1);
  serving::InferenceServer server{platform, cfg};
  sim::Rng rng{7};
  serving::RetryingSubmitter retrier{server, rng};
  std::uint64_t next_id = 1;
  bool ok = false, done = false;
  sim.spawn(drive_retrier(retrier, hw::kMediumImage, next_id, ok, done));
  sim.run_until(sim::seconds(1.0));
  EXPECT_TRUE(done);
  EXPECT_TRUE(ok);
  EXPECT_EQ(retrier.retries(), 1u);
  EXPECT_EQ(retrier.timeouts(), 1u);
  sim.run();
  server.shutdown();
}

// --- Circuit breaker -------------------------------------------------------

using BreakerState = serving::HealthGate::State;

TEST(CircuitBreaker, OpensOnDepthFastFailsThenRecloses) {
  sim::Simulator sim;
  metrics::Registry reg;
  hw::Platform platform{sim, {.registry = &reg}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  cfg.breaker.enabled = true;
  cfg.breaker.queue_depth_open = 4;
  cfg.breaker.open_duration = sim::milliseconds(50);
  cfg.breaker.half_open_probes = 1;
  serving::InferenceServer server{platform, cfg};
  using serving::FailReason;

  std::vector<serving::RequestPtr> reqs;
  for (int i = 0; i < 6; ++i) {
    reqs.push_back(std::make_shared<serving::Request>(sim, static_cast<std::uint64_t>(i + 1),
                                                      hw::kMediumImage));
    server.submit(reqs.back());
  }
  // The 4th submission brought in_flight to the depth threshold and tripped
  // the breaker; it and everything after it were fast-failed.
  EXPECT_EQ(server.breaker().state(), BreakerState::kOpen);
  EXPECT_TRUE(reqs[3]->failed);
  EXPECT_EQ(reqs[3]->fail_reason, FailReason::kBreakerOpen);
  EXPECT_TRUE(reqs[4]->failed);
  EXPECT_TRUE(reqs[5]->failed);
  EXPECT_EQ(server.stats().rejected(), 3u);
  EXPECT_EQ(server.stats().breaker_opens(), 1u);

  sim.run();  // the three admitted requests complete
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FALSE(reqs[i]->failed);

  // After open_duration the next submission is a half-open probe; its success
  // closes the breaker.
  auto probe = std::make_shared<serving::Request>(sim, 100, hw::kMediumImage);
  sim.schedule_at(sim::milliseconds(60), [&] { server.submit(probe); });
  sim.run();
  EXPECT_FALSE(probe->failed);
  EXPECT_EQ(server.breaker().state(), BreakerState::kClosed);
  server.shutdown();
  // Exactly one transition each way in serving_breaker_transitions_total.
  for (const char* to : {"open", "half-open", "closed"}) {
    const auto c = reg.find("serving_breaker_transitions_total", {{"to", to}});
    ASSERT_TRUE(c.has_value()) << to;
    EXPECT_DOUBLE_EQ(c->value, 1.0) << to;
  }
  reg.freeze_callbacks();
}

TEST(CircuitBreaker, ShedHalfOpenTrialReleasesItsSlot) {
  // A shed half-open trial must return its slot; otherwise the breaker stays
  // half-open and rejects every later request.
  sim::Simulator sim;
  hw::Platform platform{sim, {}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  cfg.breaker.enabled = true;
  cfg.breaker.queue_depth_open = 4;
  cfg.breaker.open_duration = sim::milliseconds(50);
  cfg.breaker.half_open_probes = 1;
  cfg.shed_deadline = sim::microseconds(1);  // every admitted request is shed
  serving::InferenceServer server{platform, cfg};

  std::vector<serving::RequestPtr> reqs;
  auto submit_at = [&](sim::Time t) {
    sim.schedule_at(t, [&] {
      reqs.push_back(std::make_shared<serving::Request>(sim, reqs.size() + 1, hw::kMediumImage));
      server.submit(reqs.back());
    });
  };
  for (int i = 0; i < 6; ++i) submit_at(0);  // the 4th trips the breaker
  submit_at(sim::milliseconds(60));          // half-open trial, shed
  for (int s = 1; s <= 5; ++s) submit_at(sim::seconds(s));
  sim.run();

  ASSERT_EQ(reqs.size(), 12u);
  EXPECT_EQ(reqs[3]->fail_reason, serving::FailReason::kBreakerOpen);
  EXPECT_TRUE(reqs[6]->dropped);
  for (std::size_t i = 7; i < reqs.size(); ++i) {
    EXPECT_NE(reqs[i]->fail_reason, serving::FailReason::kBreakerOpen) << "request " << i;
    EXPECT_TRUE(reqs[i]->dropped) << "request " << i;
  }
  // Sheds are not outcomes: the breaker keeps trialling, never closes.
  EXPECT_EQ(server.breaker().state(), BreakerState::kHalfOpen);
  server.shutdown();
}

TEST(CircuitBreaker, RejectionsNeverFeedTheScore) {
  sim::Simulator sim;
  hw::Platform platform{sim, {}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  cfg.breaker.enabled = true;
  cfg.breaker.queue_depth_open = 4;
  serving::InferenceServer server{platform, cfg};

  std::vector<serving::RequestPtr> reqs;
  for (int i = 0; i < 24; ++i) {
    reqs.push_back(std::make_shared<serving::Request>(sim, static_cast<std::uint64_t>(i + 1),
                                                      hw::kMediumImage));
    server.submit(reqs.back());
  }
  ASSERT_EQ(server.stats().rejected(), 21u);  // more than the 20-outcome minimum
  EXPECT_DOUBLE_EQ(server.breaker().score(), 1.0);
  sim.run();
  server.shutdown();
  for (int i = 0; i < 24; ++i) {
    auto late = std::make_shared<serving::Request>(sim, 100 + static_cast<std::uint64_t>(i),
                                                   hw::kMediumImage);
    server.submit(late);
    EXPECT_EQ(late->fail_reason, serving::FailReason::kShutdown);
  }
  EXPECT_DOUBLE_EQ(server.breaker().score(), 1.0);
  EXPECT_EQ(server.breaker().trips(), 1u);
}

TEST(CircuitBreaker, OpensOnErrorRate) {
  sim::Simulator sim;
  FaultPlan plan;
  plan.gpu_failure(0, 0, sim::seconds(10.0));
  hw::Platform platform{sim, {.faults = &plan}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  cfg.breaker.enabled = true;  // depth threshold left at its huge default
  cfg.breaker.error_rate_open = 0.5;
  cfg.breaker.open_duration = sim::seconds(1.0);
  serving::InferenceServer server{platform, cfg};

  // No retry/degrade policy: every request dispatched to the failed GPU fails
  // and feeds the error EWMA until the breaker trips.
  std::vector<serving::RequestPtr> reqs;
  for (int i = 0; i < 60; ++i) {
    sim.schedule_at(sim::milliseconds(i + 1), [&server, &reqs, i, &sim] {
      reqs.push_back(std::make_shared<serving::Request>(sim, static_cast<std::uint64_t>(i + 1),
                                                        hw::kMediumImage));
      server.submit(reqs.back());
    });
  }
  sim.run();
  EXPECT_EQ(server.breaker().state(), BreakerState::kOpen);
  EXPECT_GT(server.stats().rejected(), 0u);
  // Breaker rejections must not feed the EWMA (the breaker would never
  // close); only genuine GPU faults count as errors.
  EXPECT_GT(server.stats().failed(), server.stats().rejected());
  server.shutdown();
}

// --- Graceful degradation --------------------------------------------------

TEST(Degradation, FallsBackToCpuAndUndegradesAfterHysteresis) {
  sim::Simulator sim;
  FaultPlan plan;
  plan.gpu_failure(0, sim::milliseconds(10), sim::milliseconds(20));
  hw::Platform platform{sim, {.faults = &plan}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  cfg.audit = true;
  cfg.degrade.enabled = true;
  cfg.degrade.hysteresis = sim::milliseconds(50);
  serving::InferenceServer server{platform, cfg};

  // Requests are created inside the callback: arrival must coincide with
  // submission or the auditor's stage-conservation check trips on the gap.
  std::vector<serving::RequestPtr> reqs(3);
  auto submit_at = [&](sim::Time t, std::size_t slot) {
    sim.schedule_at(t, [&, slot] {
      reqs[slot] = std::make_shared<serving::Request>(sim, slot + 1, hw::kMediumImage);
      server.submit(reqs[slot]);
    });
  };
  submit_at(sim::milliseconds(12), 0);   // inside the failure window
  submit_at(sim::milliseconds(40), 1);   // healthy again, but < 50ms hysteresis
  submit_at(sim::milliseconds(200), 2);  // long recovered
  sim.run();

  for (const auto& req : reqs) EXPECT_FALSE(req->failed);
  // The first two took the CPU fallback; the third went back to the GPU.
  EXPECT_EQ(server.stats().degraded(), 2u);
  server.shutdown();
  EXPECT_EQ(server.auditor()->violation_count(), 0u);
}

// --- Conservation under every fault scenario -------------------------------

struct FaultScenario {
  std::string name;
  void (*arm)(FaultPlan&, serving::ServerConfig&);
};

core::ExperimentResult run_scenario(const FaultScenario& sc) {
  FaultPlan plan;
  core::ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.server.preproc = serving::PreprocDevice::kGpu;
  spec.server.audit = true;
  spec.gpu_count = 2;
  spec.warmup = sim::seconds(0.5);
  spec.measure = sim::seconds(2.0);
  sc.arm(plan, spec.server);
  spec.faults = &plan;
  return core::run_open_loop(spec, workload::poisson_arrivals(400.0));
}

TEST(FaultConservation, EveryScenarioBalancesSubmittedAgainstTerminalStates) {
  // The auditor enforces submitted == completed + dropped + failed (plus
  // stage-time conservation and drain hygiene) over the whole run, including
  // the fault windows and the drain.
  const FaultScenario scenarios[] = {
      {"gpu-failure/no-policy",
       [](FaultPlan& p, serving::ServerConfig&) {
         p.gpu_failure(0, sim::seconds(1.0), sim::seconds(1.8));
       }},
      {"gpu-failure/retry+degrade",
       [](FaultPlan& p, serving::ServerConfig& cfg) {
         p.gpu_failure(0, sim::seconds(1.0), sim::seconds(1.8));
         cfg.retry.enabled = true;
         cfg.retry.timeout = sim::milliseconds(200);
         cfg.degrade.enabled = true;
       }},
      {"preproc-slowdown",
       [](FaultPlan& p, serving::ServerConfig& cfg) {
         cfg.preproc = serving::PreprocDevice::kCpu;
         p.preproc_slowdown(sim::seconds(1.0), sim::seconds(1.6), 2.0);
       }},
      {"pcie-degradation",
       [](FaultPlan& p, serving::ServerConfig&) {
         p.pcie_degradation(sim::seconds(1.0), sim::seconds(1.6), 6.0);
       }},
      {"gpu-memory-shrink",
       [](FaultPlan& p, serving::ServerConfig&) {
         p.gpu_memory_shrink(0, sim::seconds(1.0), sim::seconds(1.8), 0.01);
       }},
      {"broker-outage/blind-poll",
       [](FaultPlan& p, serving::ServerConfig& cfg) {
         p.broker_outage(sim::seconds(1.0), sim::seconds(1.5));
         cfg.broker_publish.publish_results = true;
       }},
      {"broker-outage/breaker+failover",
       [](FaultPlan& p, serving::ServerConfig& cfg) {
         p.broker_outage(sim::seconds(1.0), sim::seconds(1.5));
         cfg.broker_publish.publish_results = true;
         cfg.broker_publish.retry_enabled = true;
         cfg.breaker.enabled = true;
         cfg.breaker.queue_depth_open = 64;
       }},
      {"payload-corruption",
       [](FaultPlan& p, serving::ServerConfig& cfg) {
         p.set_payload_corruption(0.05, 11);
         cfg.validate_payloads = true;
       }},
      {"chaos/all-policies",
       [](FaultPlan& p, serving::ServerConfig& cfg) {
         p.gpu_failure(0, sim::seconds(1.0), sim::seconds(1.3));
         p.preproc_slowdown(sim::seconds(0.8), sim::seconds(1.4), 2.0);
         p.pcie_degradation(sim::seconds(1.2), sim::seconds(1.8), 3.0);
         p.gpu_memory_shrink(1, sim::seconds(1.0), sim::seconds(2.0), 0.01);
         p.broker_outage(sim::seconds(1.5), sim::seconds(1.9));
         p.set_payload_corruption(0.02, 5);
         cfg.validate_payloads = true;
         cfg.retry.enabled = true;
         cfg.retry.timeout = sim::milliseconds(300);
         cfg.degrade.enabled = true;
         cfg.breaker.enabled = true;
         cfg.broker_publish.publish_results = true;
         cfg.broker_publish.retry_enabled = true;
       }},
  };
  for (const auto& sc : scenarios) {
    SCOPED_TRACE(sc.name);
    const auto r = run_scenario(sc);
    EXPECT_GT(r.completed, 0u);
    EXPECT_EQ(r.audit_violations, 0u);
    for (const auto& line : r.audit_report) ADD_FAILURE() << sc.name << " audit: " << line;
  }
}

TEST(FaultConservation, FaultedRunsAreDeterministic) {
  const FaultScenario chaos{"chaos", [](FaultPlan& p, serving::ServerConfig& cfg) {
                              p.gpu_failure(0, sim::seconds(1.0), sim::seconds(1.3));
                              p.pcie_degradation(sim::seconds(1.2), sim::seconds(1.8), 3.0);
                              p.set_payload_corruption(0.02, 5);
                              cfg.validate_payloads = true;
                              cfg.retry.enabled = true;
                              cfg.retry.timeout = sim::milliseconds(300);
                              cfg.degrade.enabled = true;
                            }};
  const auto a = run_scenario(chaos);
  const auto b = run_scenario(chaos);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.client_retries, b.client_retries);
  EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
}

}  // namespace
}  // namespace serve
