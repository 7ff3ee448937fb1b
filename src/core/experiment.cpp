#include "core/experiment.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "broker/broker.h"
#include "hw/tracing.h"

namespace serve::core {

namespace {

void reset_platform_stats(hw::Platform& platform) {
  platform.cpu().cores().reset_stats();
  platform.cpu().preproc_workers().reset_stats();
  platform.host_link().reset_stats();
  for (std::size_t i = 0; i < platform.gpu_count(); ++i) {
    auto& g = platform.gpu(i);
    g.compute().reset_stats();
    g.preproc().reset_stats();
    g.copy_h2d().reset_stats();
    g.copy_d2h().reset_stats();
    g.stall().reset_stats();
  }
}

std::uint64_t total_evictions(hw::Platform& platform) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < platform.gpu_count(); ++i) n += platform.gpu(i).stager().evictions();
  return n;
}

/// Staging-budget shrink transitions: a GPU-memory-shrink window scales the
/// targeted GPUs' staging budgets and the ingress cache's byte budgets.
void schedule_memory_shrinks(const sim::FaultPlan& faults, sim::Simulator& sim,
                             hw::Platform& platform, serving::InferenceServer& server) {
  faults.schedule_transitions(sim, [&platform, &server](const sim::FaultWindow& w, bool begin) {
    if (w.kind != sim::FaultKind::kGpuMemoryShrink) return;
    for (std::size_t g = 0; g < platform.gpu_count(); ++g) {
      if (w.target != sim::FaultWindow::kAllTargets && static_cast<int>(g) != w.target) {
        continue;
      }
      auto& gpu = platform.gpu(g);
      const std::int64_t full = gpu.calib().staging_budget_bytes;
      const auto shrunk = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(static_cast<double>(full) * w.magnitude));
      gpu.stager().set_budget(begin ? shrunk : full);
    }
    // Host memory pressure hits the ingress cache too: the same shrink
    // window scales its byte budgets, evicting LRU entries immediately.
    if (auto* cache = server.ingress_cache()) {
      cache->set_budget_scale(begin ? w.magnitude : 1.0);
    }
  });
}

/// One run for closed- and open-loop clients alike: builds the platform,
/// server, observer wiring and fault wiring, then the clients that
/// `make_clients(server, image_source)` returns, and runs the
/// warmup/measure/drain skeleton.
template <typename MakeClients>
ExperimentResult run_with_clients(const ExperimentSpec& spec, MakeClients make_clients) {
  ObserverWiring observers{spec, spec.alerts};
  sim::Simulator sim;
  hw::Platform platform{sim,
                        {.calib = spec.calib,
                         .gpu_count = spec.gpu_count,
                         .faults = spec.faults,
                         .registry = spec.registry}};
  if (spec.trace != nullptr) hw::attach_tracer(platform, *spec.trace);
  serving::InferenceServer server{platform, spec.server};
  observers.count_trace_events();
  observers.bind({&server}, spec.faults);
  // The optional result broker shares the fault plan, so outages hit it.
  std::optional<broker::SimBroker<std::uint64_t>> result_broker;
  if (spec.server.broker_publish.publish_results) {
    result_broker.emplace(sim, broker::redis_profile(spec.calib.broker), spec.faults,
                          spec.registry);
    server.set_result_broker(&*result_broker);
  }
  if (spec.faults != nullptr) schedule_memory_shrinks(*spec.faults, sim, platform, server);
  auto clients = make_clients(
      server, spec.image_source ? spec.image_source : serving::fixed_image(spec.image));

  observers.start(sim);
  clients.start();

  // Warmup: fill queues and reach steady state, then reset all statistics.
  sim.run_until(spec.warmup);
  server.begin_window();
  reset_platform_stats(platform);
  const std::uint64_t evictions_before = total_evictions(platform);
  const auto* cache = server.ingress_cache();
  const std::uint64_t cache_evictions_before = cache != nullptr ? cache->evictions() : 0;
  const sim::Time window_start = sim.now();

  sim.run_until(spec.warmup + spec.measure);
  const sim::Time window_end = sim.now();

  ExperimentResult r;
  const serving::Ledger& ledger = server.ledger();
  const serving::Ledger::Window w = server.window();
  r.throughput_rps = w.throughput();
  r.completed = w.completed;
  r.mean_latency_s = ledger.latency().mean();
  r.p50_latency_s = ledger.latency().p50();
  r.p99_latency_s = ledger.latency().p99();
  r.mean_batch = ledger.batch_sizes().mean();
  r.breakdown = ledger.breakdown();
  r.energy = hw::measure_energy(platform, window_start, window_end);
  r.gpu_evictions = total_evictions(platform) - evictions_before;
  r.cache_tensor_hits = w.cache_tensor_hits;
  r.cache_image_hits = w.cache_image_hits;
  r.cache_hit_rate = w.cache_hit_rate();
  if (cache != nullptr) r.cache_evictions = cache->evictions() - cache_evictions_before;
  r.dropped = w.dropped;
  r.failed = w.failed;
  r.rejected = w.rejected;
  r.breaker_opens = w.breaker_opens();
  r.degraded = w.degraded;
  r.broker_failovers = w.broker_failovers;
  r.client_retries = clients.retries();
  r.client_timeouts = clients.timeouts();

  observers.window_end();

  // Drain: stop the clients, let in-flight requests complete, close the
  // server so scheduler processes exit cleanly.
  clients.stop();
  sim.run();
  server.shutdown();
  sim.run();

  observers.teardown(r);
  return r;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentSpec& spec) {
  return run_with_clients(spec, [&spec](serving::InferenceServer& server,
                                        serving::ImageSource image_source) {
    return serving::ClosedLoopClients{server,
                                      {.concurrency = spec.concurrency,
                                       .image_source = std::move(image_source),
                                       .seed = spec.seed}};
  });
}

ExperimentResult run_open_loop(const ExperimentSpec& spec,
                               serving::OpenLoopClients::Interarrival interarrival) {
  return run_with_clients(spec, [&spec, &interarrival](serving::InferenceServer& server,
                                                       serving::ImageSource image_source) {
    return serving::OpenLoopClients{server,
                                    {.interarrival = std::move(interarrival),
                                     .image_source = std::move(image_source),
                                     .seed = spec.seed}};
  });
}

ExperimentResult run_zero_load(ExperimentSpec spec) {
  spec.concurrency = 1;
  // One request at a time: a modest window gives thousands of samples.
  if (spec.measure > sim::seconds(5.0)) spec.measure = sim::seconds(5.0);
  return run_experiment(spec);
}

}  // namespace serve::core
