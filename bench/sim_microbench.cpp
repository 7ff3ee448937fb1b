// google-benchmark micro-benchmarks of the discrete-event simulation kernel:
// raw event throughput, channel hand-offs, task spawn/switch churn, resource
// cycles, and whole-server simulation speed, bare and audited + traced. Rate
// counters (events/s, channel_ops/s, task_switches/s) plus allocation
// counters per simulated request make regressions in the per-request hot
// path visible at a glance: the sim frame pool's own counters, and every
// operator new call in the process (heap_counter.cpp replaces the global
// allocation functions to count them).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/experiment.h"
#include "heap_counter.h"
#include "models/model_zoo.h"
#include "sim/channel.h"
#include "sim/pool.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "sim/trace.h"
#include "trace/causal.h"

using namespace serve;

namespace {

void BM_EventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 10000; ++i) sim.schedule_at(i, [] {});
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * 10000), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventDispatch);

sim::Process pingpong_producer(sim::Simulator&, sim::Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) co_await ch.put(i);
  ch.close();
}

sim::Process pingpong_consumer(sim::Simulator&, sim::Channel<int>& ch) {
  // NOTE: deliberately not `while (co_await ch.get())` — GCC 12 miscompiles
  // a co_await in a while-condition here (the coroutine frame is mislaid and
  // the process silently never runs), which made an earlier version of this
  // benchmark measure an empty simulation.
  while (true) {
    auto v = co_await ch.get();
    if (!v) break;
  }
}

void BM_ChannelHandoff(benchmark::State& state) {
  const int n = 10000;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Channel<int> ch{sim, 8};
    sim.spawn(pingpong_producer(sim, ch, n));
    sim.spawn(pingpong_consumer(sim, ch));
    steps += sim.run();
    if (sim.live_processes() != 0) {
      state.SkipWithError("handoff deadlocked: processes still live");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["channel_ops/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * n), benchmark::Counter::kIsRate);
  state.counters["steps_per_item"] =
      static_cast<double>(steps) / static_cast<double>(state.iterations() * n);
}
BENCHMARK(BM_ChannelHandoff);

sim::Task<int> leaf_task(int i) { co_return i; }

sim::Task<int> mid_task(int i) {
  int acc = 0;
  for (int k = 0; k < 4; ++k) acc += co_await leaf_task(i + k);
  co_return acc;
}

sim::Process task_churn(sim::Simulator&, int n, std::uint64_t& sink) {
  for (int i = 0; i < n; ++i) sink += static_cast<std::uint64_t>(co_await mid_task(i));
}

void BM_TaskSwitch(benchmark::State& state) {
  // Spawn/await churn through nested Task coroutines: every iteration is
  // n * (1 mid + 4 leaf) frame allocations plus symmetric-transfer switches,
  // i.e. the shape of one pipeline fragment per simulated request.
  const int n = 2000;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim.spawn(task_churn(sim, n, sink));
    benchmark::DoNotOptimize(sim.run());
  }
  benchmark::DoNotOptimize(sink);
  const auto switches = state.iterations() * n * 5;  // 5 task frames per loop
  state.SetItemsProcessed(switches);
  state.counters["task_switches/s"] = benchmark::Counter(
      static_cast<double>(switches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TaskSwitch);

sim::Process resource_cycler(sim::Simulator& sim, sim::Resource& res, int n) {
  for (int i = 0; i < n; ++i) {
    auto tok = co_await res.acquire();
    co_await sim.wait(sim::microseconds(1.0));
  }
}

void BM_ResourceCycle(benchmark::State& state) {
  const int n = 5000;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Resource res{sim, 2};
    for (int p = 0; p < 4; ++p) sim.spawn(resource_cycler(sim, res, n / 4));
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ResourceCycle);

core::ExperimentSpec full_server_spec() {
  core::ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.concurrency = 256;
  spec.warmup = sim::seconds(0.5);
  spec.measure = sim::seconds(2.0);
  return spec;
}

/// Times `run_once` (one complete experiment per iteration); the counters
/// report simulated requests per wall second and how many allocations the
/// per-request hot path costs: frame-pool requests (pool hits are recycled
/// blocks), the pool's own fallbacks to the heap, and every operator new
/// call of the run, setup included (global_allocs_per_req).
template <typename RunOnce>
void run_server_simulation(benchmark::State& state, RunOnce run_once) {
  std::uint64_t requests = 0;
  const sim::AllocStats before = sim::alloc_stats();
  const std::uint64_t heap_before = bench::heap_allocs();
  for (auto _ : state) {
    const core::ExperimentResult r = run_once();
    if (r.audit_violations != 0) {
      state.SkipWithError("audit violations in the simulated run");
      return;
    }
    requests += r.completed;
    benchmark::DoNotOptimize(r);
  }
  const sim::AllocStats after = sim::alloc_stats();
  const std::uint64_t heap_after = bench::heap_allocs();
  state.counters["sim_requests/s"] =
      benchmark::Counter(static_cast<double>(requests), benchmark::Counter::kIsRate);
  if (requests > 0) {
    const auto per = [&](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(a - b) / static_cast<double>(requests);
    };
    state.counters["frame_allocs_per_req"] = per(after.frame_allocs, before.frame_allocs);
    state.counters["heap_allocs_per_req"] =
        per(after.frame_heap_allocs, before.frame_heap_allocs) +
        per(after.action_heap_allocs, before.action_heap_allocs);
    state.counters["global_allocs_per_req"] = per(heap_after, heap_before);
    state.counters["pool_hit_rate"] =
        static_cast<double>(after.frame_pool_hits - before.frame_pool_hits) /
        static_cast<double>(after.frame_allocs - before.frame_allocs);
  }
}

void BM_FullServerSimulation(benchmark::State& state) {
  // Virtual-time speed of the complete Fig. 5-style experiment, nothing
  // attached.
  run_server_simulation(state, [] { return core::run_experiment(full_server_spec()); });
}
BENCHMARK(BM_FullServerSimulation);

void BM_AuditedServerSimulation(benchmark::State& state) {
  // The same experiment on the instrumented request path: the auditor,
  // device-occupancy counters, and a causal tracer sampling 1% of requests
  // by hash. A fresh recorder per iteration keeps every iteration equal.
  run_server_simulation(state, [] {
    sim::TraceRecorder trace;
    trace::CausalTracer tracer{&trace};
    core::ExperimentSpec spec = full_server_spec();
    spec.server.audit = true;
    spec.server.trace_sampler = {.rate = 0.01, .max_sampled = UINT64_MAX};
    spec.trace = &trace;
    spec.tracer = &tracer;
    return core::run_experiment(spec);
  });
}
BENCHMARK(BM_AuditedServerSimulation);

}  // namespace

// Not BENCHMARK_MAIN(): the app-level build type goes into the JSON context
// so `servescope bench-check` can refuse debug-build numbers (google-benchmark's own
// "library_build_type" describes the system library, not this binary).
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("build_type", "release");
#else
  benchmark::AddCustomContext("build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
