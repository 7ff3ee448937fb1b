// Tests for the discrete-event simulation kernel: determinism, causality,
// channel semantics, resource fairness, and process lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/channel.h"
#include "sim/event_queue.h"
#include "sim/process.h"
#include "sim/resource.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace serve::sim {
namespace {

Process delayed_append(Simulator& sim, std::vector<int>& out, Time delay, int id) {
  co_await sim.wait(delay);
  out.push_back(id);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.spawn(delayed_append(sim, order, milliseconds(3), 3));
  sim.spawn(delayed_append(sim, order, milliseconds(1), 1));
  sim.spawn(delayed_append(sim, order, milliseconds(2), 2));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), milliseconds(3));
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Simulator, SameTimeEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.spawn(delayed_append(sim, order, milliseconds(5), i));
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInPastThrows) {
  Simulator sim;
  sim.schedule_at(milliseconds(1), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(0, [] {}), std::logic_error);
}

TEST(Simulator, RunUntilAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(seconds(1), [&] { ++fired; });
  sim.schedule_at(seconds(3), [&] { ++fired; });
  sim.run_until(seconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), seconds(2));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepLimitGuardsRunaway) {
  Simulator sim;
  // A self-rescheduling zero-delay event never terminates.
  std::function<void()> loop = [&] { sim.post(loop); };
  sim.post(loop);
  EXPECT_THROW(sim.run(10'000), std::runtime_error);
}

TEST(Simulator, NestedSpawnRunsAtCurrentTime) {
  Simulator sim;
  std::vector<Time> times;
  auto inner = [](Simulator& s, std::vector<Time>& t) -> Process {
    t.push_back(s.now());
    co_return;
  };
  auto outer = [&inner](Simulator& s, std::vector<Time>& t) -> Process {
    co_await s.wait(milliseconds(7));
    s.spawn(inner(s, t));
    co_await s.wait(milliseconds(1));
    t.push_back(s.now());
  };
  sim.spawn(outer(sim, times));
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], milliseconds(7));
  EXPECT_EQ(times[1], milliseconds(8));
}

TEST(Simulator, AbandonedProcessReclaimedAtDestruction) {
  auto waits_forever = [](Simulator&, Channel<int>& ch) -> Process {
    auto v = co_await ch.get();  // never satisfied
    (void)v;
  };
  Simulator sim;
  Channel<int> ch{sim};
  sim.spawn(waits_forever(sim, ch));
  sim.run();
  EXPECT_EQ(sim.live_processes(), 1u);
  // Destructor must reclaim the suspended frame (ASAN-clean).
}

// --- Event queue storage -----------------------------------------------------

TEST(EventQueue, InlineAndBoxedActionsRunInSeqOrderInBothTiers) {
  // Interleaved pushes at one near time and one far time. Even ids capture a
  // single pointer (stored in the event), odd ids capture 16 bytes (stored in
  // a slab cell); both kinds must run in push order within each time.
  struct Probe {
    std::vector<int>* log;
    int id;
  };
  constexpr int kPerTier = 40;
  constexpr Time kNear = 100;          // inside the first calendar window
  constexpr Time kFar = seconds(10);   // far beyond it: the heap tier
  std::vector<int> log;
  std::vector<Probe> probes;
  probes.reserve(2 * kPerTier);
  EventQueue q;
  for (int i = 0; i < 2 * kPerTier; ++i) {
    const Time t = i % 4 < 2 ? kNear : kFar;
    probes.push_back({&log, i});
    if (i % 2 == 0) {
      q.push(t, [p = &probes.back()] { p->log->push_back(p->id); });
    } else {
      q.push(t, [&log, i] { log.push_back(i); });
    }
  }
  EXPECT_EQ(q.slab_cells(), static_cast<std::size_t>(kPerTier));
  std::vector<Time> times;
  while (!q.empty()) {
    EventQueue::Item event = q.pop();
    times.push_back(event.t);
    event();
  }
  std::vector<int> expected;
  for (int i = 0; i < 2 * kPerTier; ++i) {
    if (i % 4 < 2) expected.push_back(i);
  }
  for (int i = 0; i < 2 * kPerTier; ++i) {
    if (i % 4 >= 2) expected.push_back(i);
  }
  EXPECT_EQ(log, expected);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  // Every cell went back to the free list: the same pushes reuse them.
  for (int i = 0; i < kPerTier; ++i) q.push(kFar, [&log, i] { log.push_back(i); });
  EXPECT_EQ(q.slab_cells(), static_cast<std::size_t>(kPerTier));
  while (!q.empty()) q.pop()();
}

TEST(Simulator, BoxedTimerEventsRecycleTheirSlabCells) {
  // 64 timer chains re-arm from inside their own fire callbacks until one
  // million timers have fired. Timer events capture more than 8 bytes, so
  // each sits in a slab cell; the slab must stay at the peak number of
  // timers in flight (queued, or firing while its successor is armed).
  struct Churn {
    Simulator& sim;
    int remaining = 1'000'000;
    int in_flight = 0;
    int peak = 0;

    void arm(Time delay) {
      ++in_flight;
      peak = std::max(peak, in_flight);
      sim.schedule_timeout(sim.now() + delay, &fire, this);
    }
    static void fire(void* self) {
      auto* c = static_cast<Churn*>(self);
      if (--c->remaining >= 64) c->arm(1 + c->remaining % 7);
      --c->in_flight;
    }
  };
  Simulator sim;
  Churn churn{sim};
  for (int i = 0; i < 64; ++i) churn.arm(1 + i % 5);
  sim.run();
  EXPECT_EQ(churn.remaining, 0);
  EXPECT_EQ(churn.in_flight, 0);
  EXPECT_GE(sim.event_slab_cells(), 64u);
  EXPECT_LE(sim.event_slab_cells(), static_cast<std::size_t>(churn.peak));
}

// --- Channel semantics -----------------------------------------------------

Process producer(Simulator& sim, Channel<int>& ch, int n, Time gap) {
  for (int i = 0; i < n; ++i) {
    co_await sim.wait(gap);
    co_await ch.put(i);
  }
  ch.close();
}

Process consumer(Simulator& sim, Channel<int>& ch, std::vector<int>& out) {
  (void)sim;
  while (true) {
    auto v = co_await ch.get();
    if (!v) break;
    out.push_back(*v);
  }
}

TEST(Channel, FifoDeliveryAndClose) {
  Simulator sim;
  Channel<int> ch{sim, 4};
  std::vector<int> out;
  sim.spawn(producer(sim, ch, 20, microseconds(10)));
  sim.spawn(consumer(sim, ch, out));
  sim.run();
  ASSERT_EQ(out.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Channel, BoundedCapacityBlocksProducer) {
  Simulator sim;
  Channel<int> ch{sim, 2};
  Time producer_done = -1;
  auto fast_producer = [&](Simulator& s) -> Process {
    for (int i = 0; i < 4; ++i) co_await ch.put(i);
    producer_done = s.now();
    ch.close();
  };
  auto slow_consumer = [&](Simulator& s) -> Process {
    while (true) {
      co_await s.wait(milliseconds(10));
      auto v = co_await ch.get();
      if (!v) break;
    }
  };
  sim.spawn(fast_producer(sim));
  sim.spawn(slow_consumer(sim));
  sim.run();
  // Producer must have been blocked until the consumer drained 2 elements:
  // capacity 2 means items 0,1 buffer instantly, 2 and 3 wait for gets at
  // t=10ms and t=20ms.
  EXPECT_EQ(producer_done, milliseconds(20));
}

TEST(Channel, GetUntilTimesOut) {
  Simulator sim;
  Channel<int> ch{sim};
  std::optional<int> got{42};
  Time resumed_at = -1;
  auto waiter = [&](Simulator& s) -> Process {
    got = co_await ch.get_until(milliseconds(5));
    resumed_at = s.now();
  };
  sim.spawn(waiter(sim));
  sim.run();
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(resumed_at, milliseconds(5));
}

TEST(Channel, GetUntilReceivesBeforeDeadline) {
  Simulator sim;
  Channel<int> ch{sim};
  std::optional<int> got;
  auto waiter = [&](Simulator&) -> Process { got = co_await ch.get_until(milliseconds(5)); };
  auto sender = [&](Simulator& s) -> Process {
    co_await s.wait(milliseconds(2));
    co_await ch.put(99);
  };
  sim.spawn(waiter(sim));
  sim.spawn(sender(sim));
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 99);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Channel, PutToClosedThrows) {
  Simulator sim;
  Channel<int> ch{sim};
  ch.close();
  EXPECT_THROW(ch.try_put(1), ChannelClosed);
}

TEST(Channel, CloseWakesBlockedGetters) {
  Simulator sim;
  Channel<int> ch{sim};
  int finished = 0;
  auto waiter = [&](Simulator&) -> Process {
    auto v = co_await ch.get();
    EXPECT_FALSE(v.has_value());
    ++finished;
  };
  sim.spawn(waiter(sim));
  sim.spawn(waiter(sim));
  auto closer = [&](Simulator& s) -> Process {
    co_await s.wait(milliseconds(1));
    ch.close();
  };
  sim.spawn(closer(sim));
  sim.run();
  EXPECT_EQ(finished, 2);
}

TEST(Channel, DrainAfterCloseDeliversBufferedItems) {
  Simulator sim;
  Channel<int> ch{sim};
  ASSERT_TRUE(ch.try_put(7));
  ch.close();
  std::vector<int> out;
  sim.spawn(consumer(sim, ch, out));
  sim.run();
  EXPECT_EQ(out, std::vector<int>{7});
}

TEST(Channel, RejectedTryPutLeavesValueIntact) {
  Simulator sim;
  Channel<std::unique_ptr<int>> ch{sim, 1};
  ASSERT_TRUE(ch.try_put(std::make_unique<int>(1)));
  auto v = std::make_unique<int>(2);
  EXPECT_FALSE(ch.try_put(std::move(v)));
  ASSERT_NE(v, nullptr);  // full: the caller still owns the value
  EXPECT_EQ(*v, 2);
  EXPECT_EQ(ch.size(), 1u);
}

TEST(Channel, ClosedTryPutThrowsWithoutConsumingValue) {
  Simulator sim;
  Channel<std::unique_ptr<int>> ch{sim};
  ch.close();
  auto v = std::make_unique<int>(3);
  EXPECT_THROW(ch.try_put(std::move(v)), ChannelClosed);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 3);
}

TEST(Channel, RingBufferKeepsFifoThroughWrapAndGrowth) {
  // A random put/get mix drives the ring through wrap-around and through
  // growth while its head is mid-buffer; order, sizes and every size-observer
  // value must match a std::deque doing the same operations.
  Simulator sim;
  Channel<std::unique_ptr<int>> ch{sim};
  std::vector<std::size_t> observed;
  ch.set_size_observer([&](std::size_t n) { observed.push_back(n); });
  std::deque<int> ref;
  std::vector<std::size_t> expected;
  Rng rng{11};
  int next = 0;
  for (int step = 0; step < 20'000; ++step) {
    // Drift upward, so the ring keeps growing while it wraps.
    if (ref.empty() || rng.uniform() < 0.55) {
      ASSERT_TRUE(ch.try_put(std::make_unique<int>(next)));
      ref.push_back(next++);
    } else {
      auto v = ch.try_get();
      ASSERT_TRUE(v.has_value());
      ASSERT_EQ(**v, ref.front());
      ref.pop_front();
    }
    expected.push_back(ref.size());
    ASSERT_EQ(ch.size(), ref.size());
  }
  EXPECT_GT(ref.size(), 100u);
  EXPECT_EQ(observed, expected);
  // The remaining elements are destroyed with the channel (ASan checks it).
}

// --- Resource semantics ----------------------------------------------------

TEST(Resource, LimitsConcurrency) {
  Simulator sim;
  Resource workers{sim, 2, "workers"};
  std::size_t peak = 0;
  std::size_t active = 0;
  WaitGroup wg{sim};
  auto job = [&](Simulator& s) -> Process {
    auto tok = co_await workers.acquire();
    ++active;
    peak = std::max(peak, active);
    co_await s.wait(milliseconds(10));
    --active;
    tok.release();
    wg.done();
  };
  for (int i = 0; i < 8; ++i) {
    wg.add();
    sim.spawn(job(sim));
  }
  sim.run();
  EXPECT_EQ(peak, 2u);
  EXPECT_EQ(sim.now(), milliseconds(40));  // 8 jobs / 2 workers * 10ms
  EXPECT_EQ(workers.in_use(), 0u);
}

TEST(Resource, FifoGrantOrder) {
  Simulator sim;
  Resource r{sim, 1};
  std::vector<int> grant_order;
  auto job = [&](Simulator& s, int id, Time arrive) -> Process {
    co_await s.wait(arrive);
    auto tok = co_await r.acquire();
    grant_order.push_back(id);
    co_await s.wait(milliseconds(100));
  };
  sim.spawn(job(sim, 1, milliseconds(0)));
  sim.spawn(job(sim, 2, milliseconds(1)));
  sim.spawn(job(sim, 3, milliseconds(2)));
  sim.run();
  EXPECT_EQ(grant_order, (std::vector<int>{1, 2, 3}));
}

TEST(Resource, TokenReleasesOnScopeExit) {
  Simulator sim;
  Resource r{sim, 1};
  int second_ran = 0;
  auto first = [&](Simulator& s) -> Process {
    {
      auto tok = co_await r.acquire();
      co_await s.wait(milliseconds(1));
    }  // token destroyed here
    co_await s.wait(milliseconds(100));
  };
  auto second = [&](Simulator& s) -> Process {
    auto tok = co_await r.acquire();
    second_ran = 1;
    EXPECT_EQ(s.now(), milliseconds(1));
  };
  sim.spawn(first(sim));
  sim.spawn(second(sim));
  sim.run();
  EXPECT_EQ(second_ran, 1);
}

TEST(Resource, MultiUnitAcquire) {
  Simulator sim;
  Resource mem{sim, 10, "memory"};
  Time big_granted = -1;
  auto small = [&](Simulator& s) -> Process {
    auto tok = co_await mem.acquire(6);
    co_await s.wait(milliseconds(10));
  };
  auto big = [&](Simulator& s) -> Process {
    co_await s.wait(milliseconds(1));
    auto tok = co_await mem.acquire(8);  // must wait for small's 6 to free
    big_granted = s.now();
  };
  sim.spawn(small(sim));
  sim.spawn(big(sim));
  sim.run();
  EXPECT_EQ(big_granted, milliseconds(10));
}

TEST(Resource, OverCapacityAcquireThrows) {
  Simulator sim;
  Resource r{sim, 4};
  EXPECT_THROW((void)r.acquire(5), std::invalid_argument);
}

TEST(Resource, UtilizationIntegral) {
  Simulator sim;
  Resource r{sim, 2};
  auto job = [&](Simulator& s) -> Process {
    auto tok = co_await r.acquire();
    co_await s.wait(seconds(1));
  };
  sim.spawn(job(sim));
  sim.spawn(job(sim));
  sim.run_until(seconds(2));
  // 2 units busy for 1s of a 2s window on capacity 2 => 50% utilization.
  EXPECT_NEAR(r.utilization(), 0.5, 1e-9);
}

TEST(Resource, TryAcquireRespectsWaiters) {
  Simulator sim;
  Resource r{sim, 2};
  auto holder = [&](Simulator& s) -> Process {
    auto tok = co_await r.acquire(2);
    co_await s.wait(milliseconds(10));
  };
  auto blocked = [&](Simulator&) -> Process {
    auto tok = co_await r.acquire(1);
  };
  sim.spawn(holder(sim));
  sim.spawn(blocked(sim));
  sim.run_until(milliseconds(5));
  // One unit is free? No: holder took both. And `blocked` waits.
  EXPECT_FALSE(r.try_acquire(1).holds());
  sim.run();
}

TEST(Resource, FifoWithMixedAmounts) {
  // Capacity 4, all held until 1 ms. Then 3 units are granted to the oldest
  // waiter; the next one wants 2 and must wait, and a later 1-unit waiter
  // must not jump ahead of it although one unit is free.
  Simulator sim;
  Resource r{sim, 4};
  std::vector<std::pair<int, Time>> grants;
  auto job = [&](Simulator& s, int id, std::size_t amount, Time arrive) -> Process {
    co_await s.wait(arrive);
    auto tok = co_await r.acquire(amount);
    grants.emplace_back(id, s.now());
    co_await s.wait(milliseconds(1));
  };
  sim.spawn(job(sim, 0, 4, 0));
  sim.spawn(job(sim, 1, 3, microseconds(10)));
  sim.spawn(job(sim, 2, 2, microseconds(20)));
  sim.spawn(job(sim, 3, 1, microseconds(30)));
  sim.spawn(job(sim, 4, 1, microseconds(40)));
  sim.run_until(microseconds(1500));
  EXPECT_EQ(r.in_use(), 3u);
  EXPECT_EQ(r.queue_length(), 3u);
  sim.run();
  const std::vector<std::pair<int, Time>> expected{{0, 0},
                                                   {1, milliseconds(1)},
                                                   {2, milliseconds(2)},
                                                   {3, milliseconds(2)},
                                                   {4, milliseconds(2)}};
  EXPECT_EQ(grants, expected);
  EXPECT_EQ(r.in_use(), 0u);
  EXPECT_EQ(r.queue_length(), 0u);
}

// --- Sync primitives ---------------------------------------------------------

TEST(Event, BroadcastWakesAll) {
  Simulator sim;
  Event ev{sim};
  int woken = 0;
  auto waiter = [&](Simulator& s) -> Process {
    co_await ev.wait();
    EXPECT_EQ(s.now(), milliseconds(3));
    ++woken;
  };
  for (int i = 0; i < 5; ++i) sim.spawn(waiter(sim));
  sim.schedule_at(milliseconds(3), [&] { ev.set(); });
  sim.run();
  EXPECT_EQ(woken, 5);
}

TEST(Event, WaitOnSetEventIsImmediate) {
  Simulator sim;
  Event ev{sim};
  ev.set();
  bool ran = false;
  auto waiter = [&](Simulator&) -> Process {
    co_await ev.wait();
    ran = true;
  };
  sim.spawn(waiter(sim));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Event, TimedWaiterInTheMiddleTimesOutThenSetResumesTheRestInOrder) {
  // Timed waiters A, B, C (B's deadline is early) and untimed D, E. B times
  // out from the middle of the list at 2 ms; set() at 5 ms wakes the untimed
  // waiters, then the timed ones, each in FIFO order. A's and C's timers are
  // cancelled: they must never resume anyone at 10 ms.
  Simulator sim;
  Event ev{sim};
  std::vector<std::string> log;
  auto timed = [&](Simulator& s, std::string name, Time deadline) -> Process {
    const bool signalled = co_await ev.wait_until(deadline);
    log.push_back(name + (signalled ? " set@" : " timeout@") + std::to_string(s.now()));
  };
  auto untimed = [&](Simulator& s, std::string name) -> Process {
    co_await ev.wait();
    log.push_back(name + " set@" + std::to_string(s.now()));
  };
  sim.spawn(timed(sim, "A", milliseconds(10)));
  sim.spawn(timed(sim, "B", milliseconds(2)));
  sim.spawn(timed(sim, "C", milliseconds(10)));
  sim.spawn(untimed(sim, "D"));
  sim.spawn(untimed(sim, "E"));
  sim.schedule_at(milliseconds(5), [&] { ev.set(); });
  sim.run();
  const std::string ms2 = std::to_string(milliseconds(2));
  const std::string ms5 = std::to_string(milliseconds(5));
  EXPECT_EQ(log, (std::vector<std::string>{"B timeout@" + ms2, "D set@" + ms5, "E set@" + ms5,
                                           "A set@" + ms5, "C set@" + ms5}));
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(WaitGroup, WaitsForAll) {
  Simulator sim;
  WaitGroup wg{sim};
  Time finished = -1;
  auto worker = [&](Simulator& s, Time d) -> Process {
    co_await s.wait(d);
    wg.done();
  };
  for (int i = 1; i <= 4; ++i) {
    wg.add();
    sim.spawn(worker(sim, milliseconds(i)));
  }
  auto joiner = [&](Simulator& s) -> Process {
    co_await wg.wait();
    finished = s.now();
  };
  sim.spawn(joiner(sim));
  sim.run();
  EXPECT_EQ(finished, milliseconds(4));
}

TEST(WaitGroup, DoneUnderflowThrows) {
  Simulator sim;
  WaitGroup wg{sim};
  EXPECT_THROW(wg.done(), std::logic_error);
}

// --- RNG ---------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, UniformInRange) {
  Rng rng{1};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng{5};
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.005);
}

TEST(Rng, NormalMoments) {
  Rng rng{9};
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(sq / n - mean * mean, 4.0, 0.1);
}

TEST(Rng, PoissonMean) {
  Rng rng{11};
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(6.0));
  EXPECT_NEAR(sum / n, 6.0, 0.1);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng rng{13};
  const std::vector<double> w{1.0, 3.0};
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ones += rng.discrete(w) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

TEST(Rng, DiscreteRejectsBadWeights) {
  Rng rng{1};
  const std::vector<double> neg{1.0, -1.0};
  EXPECT_THROW(rng.discrete(neg), std::invalid_argument);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(rng.discrete(zero), std::invalid_argument);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng{17};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent{21};
  Rng child = parent.fork();
  // Streams should diverge immediately.
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += parent() == child() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

// Determinism of an entire mini-simulation: identical seeds => identical
// event counts and final clock.
class SimDeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimDeterminismTest, RepeatRunsIdentical) {
  auto run_once = [&](std::uint64_t seed) {
    Simulator sim;
    Rng rng{seed};
    Channel<int> ch{sim, 16};
    std::vector<int> out;
    auto prod = [&](Simulator& s) -> Process {
      for (int i = 0; i < 50; ++i) {
        co_await s.wait(microseconds(rng.exponential(1.0) * 100.0));
        co_await ch.put(i);
      }
      ch.close();
    };
    sim.spawn(prod(sim));
    sim.spawn(consumer(sim, ch, out));
    sim.run();
    return std::pair{sim.now(), sim.steps()};
  };
  const auto a = run_once(GetParam());
  const auto b = run_once(GetParam());
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimDeterminismTest, ::testing::Values(1u, 7u, 99u, 1234u));

}  // namespace
}  // namespace serve::sim
