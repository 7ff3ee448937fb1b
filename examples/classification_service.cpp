// Example: capacity-planning a vision classification service.
//
// The scenario from the paper's introduction: a social-media platform must
// classify a stream of user-uploaded photos (mixed sizes!) within a latency
// SLO. This example sweeps concurrency for two candidate deployments — CPU
// vs GPU preprocessing — and reports the highest throughput each sustains
// under a p99 SLO, plus the node count needed for a target aggregate load.
//
//   $ ./classification_service [target_img_per_s] [p99_slo_ms]
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/experiment.h"
#include "metrics/table.h"
#include "models/model_zoo.h"
#include "serving/client.h"
#include "serving/server.h"
#include "workload/image_mixture.h"

using namespace serve;

namespace {

struct SweepPoint {
  int concurrency;
  double tput;
  double p99_ms;
};

/// Runs the mixed-size workload at one concurrency level. Uses the mixture
/// sampler directly as the client image source.
SweepPoint run_point(serving::PreprocDevice dev, int concurrency) {
  sim::Simulator sim;
  hw::Platform platform{sim, {}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  cfg.preproc = dev;
  serving::InferenceServer server{platform, cfg};

  const auto mixture = workload::ImageMixture::imagenet_like();
  serving::ClosedLoopClients clients{
      server,
      {.concurrency = concurrency,
       .image_source = [mixture](sim::Rng& rng) { return mixture.sample(rng); },
       .seed = 99}};
  clients.start();
  sim.run_until(sim::seconds(2.0));
  server.begin_window();
  sim.run_until(sim::seconds(10.0));
  SweepPoint point{concurrency, server.window().throughput(),
                   server.ledger().latency().p99() * 1e3};
  clients.stop();
  sim.run();
  server.shutdown();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const double target_load = argc > 1 ? std::atof(argv[1]) : 25000.0;  // img/s fleet-wide
  const double slo_ms = argc > 2 ? std::atof(argv[2]) : 150.0;

  std::printf("Capacity plan: ViT-Base classification, ImageNet-like size mix\n");
  std::printf("Fleet load %.0f img/s, p99 SLO %.0f ms\n\n", target_load, slo_ms);

  metrics::Table table({"preproc", "concurrency", "tput_img_s", "p99_ms", "meets_slo"});
  double best[2] = {0.0, 0.0};
  for (auto dev : {serving::PreprocDevice::kCpu, serving::PreprocDevice::kGpu}) {
    const int d = dev == serving::PreprocDevice::kCpu ? 0 : 1;
    for (int c : {16, 32, 64, 128, 256, 512}) {
      const auto p = run_point(dev, c);
      const bool ok = p.p99_ms <= slo_ms;
      if (ok) best[d] = std::max(best[d], p.tput);
      table.add_row({std::string(d == 0 ? "cpu" : "gpu"), static_cast<std::int64_t>(c), p.tput,
                     p.p99_ms, std::string(ok ? "yes" : "no")});
    }
  }
  table.print(std::cout);

  for (int d : {0, 1}) {
    const char* name = d == 0 ? "CPU" : "GPU";
    if (best[d] <= 0) {
      std::printf("\n%s preprocessing: no concurrency met the SLO\n", name);
      continue;
    }
    const int nodes = static_cast<int>(target_load / best[d]) + 1;
    std::printf("\n%s preprocessing: best SLO-compliant tput %.0f img/s -> %d nodes for %.0f img/s",
                name, best[d], nodes, target_load);
  }
  std::printf("\n\nGPU preprocessing typically needs fewer nodes — the Fig. 5 takeaway.\n");
  return 0;
}
