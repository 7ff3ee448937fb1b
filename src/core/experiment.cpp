#include "core/experiment.h"

#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string_view>
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

/// Per-request spans come from the auditor; stream them into spec.trace
/// alongside the device counters attach_tracer already records. With a
/// causal tracer the auditor also originates SpanContexts and the recorder's
/// memory-bound accounting is surfaced through the telemetry registry.
void wire_audit_trace(const ExperimentSpec& spec, serving::InferenceServer& server) {
  if (spec.trace != nullptr && server.auditor() != nullptr) {
    server.auditor()->set_trace(spec.trace);
    if (spec.tracer != nullptr) server.auditor()->set_causal_tracer(spec.tracer);
  }
  if (spec.trace != nullptr && spec.registry != nullptr) {
    sim::TraceRecorder* rec = spec.trace;
    spec.registry->counter_fn("trace_events_recorded_total", {},
                              [rec] { return static_cast<double>(rec->event_count()); });
    spec.registry->counter_fn("trace_events_dropped_total", {},
                              [rec] { return static_cast<double>(rec->dropped_events()); });
  }
  if (spec.alerts != nullptr) {
    if (spec.trace != nullptr) spec.alerts->set_trace(spec.trace);
    // Triggered capture only makes sense when requests are being sampled at
    // all: the auditor owns the sampler that originates SpanContexts.
    if (server.auditor() != nullptr && spec.tracer != nullptr) {
      spec.alerts->set_triggered_sampler(&server.auditor()->sampler());
    }
  }
}

/// Fault-injection wiring owned by the runner: the optional result broker
/// (shares the fault plan so outages hit it), staging-budget shrink
/// transitions, and fault-window spans on the trace.
struct FaultHarness {
  std::optional<broker::SimBroker<std::uint64_t>> result_broker;

  void install(const ExperimentSpec& spec, sim::Simulator& sim, hw::Platform& platform,
               serving::InferenceServer& server) {
    if (spec.server.broker_publish.publish_results) {
      result_broker.emplace(sim, broker::redis_profile(spec.calib.broker), spec.faults,
                            spec.registry);
      server.set_result_broker(&*result_broker);
    }
    if (spec.faults == nullptr || spec.faults->empty()) return;
    if (spec.trace != nullptr) spec.faults->annotate(*spec.trace);
    if (auto* audit = server.auditor()) {
      for (const auto& w : spec.faults->windows()) {
        audit->on_fault_window(sim::fault_kind_name(w.kind), w.begin, w.end);
      }
    }
    spec.faults->schedule_transitions(
        sim, [&platform, &server](const sim::FaultWindow& w, bool begin) {
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
};

/// One run for closed- and open-loop clients alike: builds the platform,
/// server, trace/audit wiring and fault harness, then the clients that
/// `make_clients(server, image_source)` returns, and runs the
/// warmup/measure/drain skeleton.
template <typename MakeClients>
ExperimentResult run_with_clients(const ExperimentSpec& spec, MakeClients make_clients) {
  sim::Simulator sim;
  hw::Platform platform{sim,
                        {.calib = spec.calib,
                         .gpu_count = spec.gpu_count,
                         .faults = spec.faults,
                         .registry = spec.registry}};
  if (spec.trace != nullptr) hw::attach_tracer(platform, *spec.trace);
  serving::InferenceServer server{platform, spec.server};
  wire_audit_trace(spec, server);
  FaultHarness harness;
  harness.install(spec, sim, platform, server);
  auto clients = make_clients(
      server, spec.image_source ? spec.image_source : serving::fixed_image(spec.image));

  if (spec.recorder != nullptr) spec.recorder->start(sim);
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

  // Stop sampling at the window edge: the drain below runs the simulator
  // dry, and a still-armed recorder would re-schedule itself forever.
  if (spec.recorder != nullptr) spec.recorder->stop();

  // Drain: stop the clients, let in-flight requests complete, close the
  // server so scheduler processes exit cleanly.
  clients.stop();
  sim.run();
  server.shutdown();
  sim.run();

  if (auto* audit = server.auditor()) {
    r.audit_violations = audit->violation_count();
    r.audit_report = audit->report();
  }
  // The triggered-capture binding points into the auditor, which dies with
  // the server when this frame unwinds; the engine must not outlive it armed.
  if (spec.alerts != nullptr) spec.alerts->release_triggered_sampler();
  // Callback instruments capture the platform/server/clients by reference;
  // convert them to plain values while everything is still alive so the
  // registry can be read (and exported) after this stack frame unwinds.
  if (spec.registry != nullptr) spec.registry->freeze_callbacks();
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

void HarnessOptions::apply(ExperimentSpec& spec, sim::TraceRecorder& trace,
                           trace::CausalTracer* tracer) const {
  if (auditing()) spec.server.audit = true;
  if (tracing()) {
    spec.trace = &trace;
    if (trace_max_events > 0) trace.set_max_events(trace_max_events);
    if (tracer != nullptr) {
      tracer->set_recorder(&trace);
      spec.tracer = tracer;
    }
  }
}

HarnessOptions parse_harness_options(int argc, const char* const* argv) {
  HarnessOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--audit") {
      opts.audit = true;
    } else if (arg == "--trace-out") {
      if (i + 1 >= argc) throw std::invalid_argument("--trace-out requires a file path");
      opts.trace_out = argv[++i];
    } else if (arg == "--trace-max-events") {
      if (i + 1 >= argc) throw std::invalid_argument("--trace-max-events requires a count");
      const std::string v = argv[++i];
      std::size_t pos = 0;
      unsigned long long n = 0;
      try {
        n = std::stoull(v, &pos);
      } catch (const std::exception&) {
        pos = 0;
      }
      if (pos != v.size() || n == 0) {
        throw std::invalid_argument("--trace-max-events needs a positive integer, got '" + v + "'");
      }
      opts.trace_max_events = static_cast<std::size_t>(n);
    } else {
      throw std::invalid_argument(
          "unknown flag '" + std::string(arg) +
          "' (supported: --audit, --trace-out <path>, --trace-max-events <n>)");
    }
  }
  return opts;
}

std::uint64_t report_audit(const ExperimentResult& r, const std::string& label) {
  if (r.audit_violations == 0) return 0;
  std::cerr << "AUDIT FAILED [" << label << "]: " << r.audit_violations << " violation(s)\n";
  for (const auto& line : r.audit_report) std::cerr << "  " << line << "\n";
  return r.audit_violations;
}

bool finish_harness(const HarnessOptions& opts, const sim::TraceRecorder& trace,
                    std::uint64_t total_violations) {
  bool trace_ok = true;
  if (opts.tracing()) {
    std::ofstream out{opts.trace_out};
    if (out) trace.write_chrome_json(out);
    out.flush();  // the last buffered bytes can still fail (e.g. a full disk)
    if (out) {
      std::cerr << "# trace: " << opts.trace_out << " (" << trace.span_count() << " spans, "
                << trace.counter_count() << " counter samples, " << trace.memory_bytes() / 1024
                << " KiB held";
      if (trace.dropped_events() > 0) {
        std::cerr << ", " << trace.dropped_events() << " events dropped at the "
                  << trace.max_events() << "-event cap";
      }
      std::cerr << ")\n";
    } else {
      // The sweep already ran; losing the trace should not look like a crash.
      std::cerr << "error: cannot write trace output " << opts.trace_out << '\n';
      trace_ok = false;
    }
  }
  if (opts.auditing()) {
    std::cerr << "# audit: "
              << (total_violations == 0
                      ? "clean (conservation, hygiene, monotonicity all hold)"
                      : std::to_string(total_violations) + " violation(s)")
              << "\n";
  }
  return trace_ok && total_violations == 0;
}

}  // namespace serve::core
