// Example: automated server-configuration search + pipeline visualization.
//
// Reproduces the paper's Section 2.3 workflow as a tool: given a model and
// an SLO, grid-search the deployment knobs (preprocessing device, batch
// limit, concurrency, CPU worker pool), print the search trace, and dump a
// chrome://tracing JSON of the winning configuration's device occupancy.
//
//   $ ./tune_deployment [model] [p99_slo_ms] [trace.json]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "core/autotuner.h"
#include "metrics/table.h"
#include "models/model_zoo.h"

using namespace serve;

int main(int argc, char** argv) {
  const std::string model_name = argc > 1 ? argv[1] : "vit-base";
  const double slo_ms = argc > 2 ? std::atof(argv[2]) : 200.0;
  const std::string trace_path = argc > 3 ? argv[3] : "tuned_deployment_trace.json";

  core::ExperimentSpec base;
  base.server.model = models::find_model(model_name);
  base.measure = sim::seconds(5.0);

  core::TuneSpace space;
  space.max_batches = {16, 64, 128};
  space.concurrencies = {64, 256, 512};
  space.preproc_workers = {8, 24};
  core::TuneObjective objective;
  objective.p99_slo_s = slo_ms / 1e3;

  std::printf("Tuning %s for p99 <= %.0f ms (%zu configurations)...\n\n", model_name.c_str(),
              slo_ms, space.max_batches.size() * space.concurrencies.size() * 3);
  const auto report = core::tune_server(base, space, objective);

  metrics::Table table(
      {"preproc", "workers", "max_batch", "concurrency", "tput_img_s", "p99_ms", "feasible"});
  for (const auto& p : report.trace) {
    table.add_row({std::string(preproc_device_name(p.spec.server.preproc)),
                   static_cast<std::int64_t>(p.spec.calib.cpu.preproc_workers),
                   static_cast<std::int64_t>(p.spec.server.max_batch),
                   static_cast<std::int64_t>(p.spec.concurrency), p.result.throughput_rps,
                   p.result.p99_latency_s * 1e3, std::string(p.feasible ? "yes" : "no")});
  }
  table.print(std::cout);

  if (!report.found_feasible()) {
    std::printf("\nNo configuration met the SLO — relax it or add GPUs.\n");
    return 1;
  }
  const auto& best = report.best;
  std::printf("\nBest: %s preprocessing, max_batch %d, concurrency %d -> %.0f img/s @ p99 %.1f ms\n",
              std::string(preproc_device_name(best.spec.server.preproc)).c_str(),
              best.spec.server.max_batch, best.spec.concurrency, best.result.throughput_rps,
              best.result.p99_latency_s * 1e3);

  // Re-run the winner with tracing enabled and dump the timeline.
  sim::TraceRecorder trace;
  core::ExperimentSpec traced = best.spec;
  traced.measure = sim::seconds(0.25);  // a short window keeps the JSON readable
  traced.trace = &trace;
  (void)core::run_experiment(traced);
  std::ofstream out{trace_path};
  trace.write_chrome_json(out);
  out.flush();  // the last buffered bytes can still fail (e.g. a full disk)
  if (!out) {
    std::fprintf(stderr, "error: cannot write trace output %s\n", trace_path.c_str());
    return 1;
  }
  std::printf("Device-occupancy timeline written to %s (open in chrome://tracing)\n",
              trace_path.c_str());
  return 0;
}
