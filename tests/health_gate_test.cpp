// Tests for serving::HealthGate, the one health state machine behind both
// the fleet balancer's node ejection and the server's ingest breaker. Pure
// bookkeeping over virtual time: no simulator, no server.
#include <gtest/gtest.h>

#include "serving/health_gate.h"

namespace serve::serving {
namespace {

using State = HealthGate::State;

// Fleet scope: a node gate as the balancer builds it from HealthCheckPolicy.
HealthGate::Options node_options() {
  return {.alpha = 0.5,
          .trip_score = 0.5,
          .probe_failures = 3,
          .hold = sim::milliseconds(500),
          .trial_slots = 3};
}

// Server scope: the ingest breaker's mapping of CircuitBreakerPolicy
// defaults (alpha 0.05, 20-outcome minimum, trip below 1 - 0.5).
HealthGate::Options breaker_options() {
  return {.alpha = 0.05,
          .trip_score = 0.5,
          .min_outcomes = 20,
          .hold = sim::milliseconds(100),
          .trial_slots = 1};
}

TEST(HealthGate, EjectsOnConsecutiveProbeFailures) {
  auto o = node_options();
  o.trip_score = 0.0;  // isolate the probe path: the score never falls below 0
  HealthGate h(o);
  h.on_probe(false, 0);
  h.on_probe(false, 0);
  EXPECT_EQ(h.state(), State::kClosed);
  h.on_probe(false, 0);
  EXPECT_EQ(h.state(), State::kOpen);
  EXPECT_EQ(h.trips(), 1u);
}

TEST(HealthGate, EjectsWhenScoreDropsBelowThreshold) {
  auto o = node_options();
  o.probe_failures = 1000;  // isolate the score path
  HealthGate h(o);
  h.on_outcome(false, 0);  // score 1.0 -> 0.5: not yet below
  EXPECT_EQ(h.state(), State::kClosed);
  h.on_outcome(false, 0);  // 0.5 -> 0.25: tripped
  EXPECT_EQ(h.state(), State::kOpen);
}

TEST(HealthGate, HalfOpenTrialsThenRejoin) {
  HealthGate h(node_options());
  for (int i = 0; i < 3; ++i) h.on_probe(false, 0);
  ASSERT_EQ(h.state(), State::kOpen);
  EXPECT_FALSE(h.admits(sim::milliseconds(499)));
  // The hold expires -> half-open with limited trial slots.
  EXPECT_TRUE(h.admits(sim::milliseconds(500)));
  EXPECT_EQ(h.state(), State::kHalfOpen);
  h.begin_trial();
  h.begin_trial();
  h.begin_trial();
  EXPECT_FALSE(h.admits(sim::milliseconds(500)));  // trial slots exhausted
  h.end_trial();
  EXPECT_TRUE(h.admits(sim::milliseconds(500)));
  // trial_slots successes close the gate; the score resets clean.
  const auto t = sim::milliseconds(501);
  h.on_probe(true, t);
  h.on_probe(true, t);
  h.on_probe(true, t);
  EXPECT_EQ(h.state(), State::kClosed);
  EXPECT_DOUBLE_EQ(h.score(), 1.0);
  EXPECT_EQ(h.recoveries(), 1u);
}

TEST(HealthGate, HalfOpenFailureReEjects) {
  HealthGate h(node_options());
  for (int i = 0; i < 3; ++i) h.on_probe(false, 0);
  ASSERT_TRUE(h.admits(sim::milliseconds(500)));  // -> half-open
  h.on_probe(false, sim::milliseconds(501));
  EXPECT_EQ(h.state(), State::kOpen);
  EXPECT_EQ(h.trips(), 2u);
  // The hold restarts from the re-trip time.
  EXPECT_FALSE(h.admits(sim::milliseconds(900)));
  EXPECT_TRUE(h.admits(sim::milliseconds(1001)));
}

TEST(HealthGate, DisabledGateAlwaysAdmits) {
  auto o = node_options();
  o.enabled = false;
  HealthGate h(o);
  for (int i = 0; i < 10; ++i) h.on_probe(false, 0);
  h.trip(0);
  EXPECT_TRUE(h.admits(0));
  EXPECT_EQ(h.state(), State::kClosed);
  EXPECT_DOUBLE_EQ(h.score(), 1.0);
}

TEST(HealthGate, TrialOutlivingItsEpisodeFreesASlotOfTheNext) {
  auto o = node_options();
  o.trial_slots = 1;
  HealthGate h(o);
  for (int i = 0; i < 3; ++i) h.on_probe(false, 0);
  ASSERT_TRUE(h.admits(sim::milliseconds(500)));
  h.begin_trial();                             // trial A, episode 1
  h.on_probe(false, sim::milliseconds(501));   // re-trip: trial count zeroed
  ASSERT_TRUE(h.admits(sim::milliseconds(1001)));
  h.begin_trial();                             // trial B, episode 2
  EXPECT_FALSE(h.admits(sim::milliseconds(1001)));
  h.end_trial();                               // trial A ends late
  EXPECT_TRUE(h.admits(sim::milliseconds(1001)));
}

// --- Server scope ----------------------------------------------------------

TEST(HealthGate, BreakerNeedsTwentyOutcomesBeforeTheScoreTrips) {
  HealthGate h(breaker_options());
  for (int i = 0; i < 19; ++i) h.on_outcome(false, 0);
  // 0.95^19 ~= 0.38 is already below 0.5, but only 19 outcomes are in.
  EXPECT_LT(h.score(), 0.5);
  EXPECT_EQ(h.state(), State::kClosed);
  h.on_outcome(false, 0);
  EXPECT_EQ(h.state(), State::kOpen);
  EXPECT_EQ(h.trips(), 1u);
}

TEST(HealthGate, BreakerBoundaryIsStrict) {
  auto o = breaker_options();
  o.alpha = 0.5;
  o.min_outcomes = 0;
  HealthGate h(o);
  h.on_outcome(false, 0);  // score exactly 0.5: strict <, still closed
  EXPECT_EQ(h.state(), State::kClosed);
  h.on_outcome(false, 0);
  EXPECT_EQ(h.state(), State::kOpen);
}

TEST(HealthGate, CallerTripRejectsImmediatelyAndHalfOpensAfterHold) {
  HealthGate h(breaker_options());
  ASSERT_TRUE(h.admits(0));
  h.trip(0);  // e.g. in-flight depth reached
  EXPECT_EQ(h.state(), State::kOpen);
  EXPECT_FALSE(h.admits(0));
  EXPECT_DOUBLE_EQ(h.score(), 1.0);  // a caller trip never touches the score
  EXPECT_FALSE(h.admits(sim::milliseconds(99)));
  EXPECT_TRUE(h.admits(sim::milliseconds(100)));
  EXPECT_EQ(h.state(), State::kHalfOpen);
}

TEST(HealthGate, ReleasedTrialSlotReadmitsWithoutAnOutcome) {
  HealthGate h(breaker_options());
  h.trip(0);
  ASSERT_TRUE(h.admits(sim::milliseconds(100)));
  h.begin_trial();
  EXPECT_FALSE(h.admits(sim::milliseconds(100)));
  h.end_trial();  // the trial was shed: no outcome, but its slot returns
  EXPECT_TRUE(h.admits(sim::milliseconds(200)));
  EXPECT_EQ(h.state(), State::kHalfOpen);
}

}  // namespace
}  // namespace serve::serving
