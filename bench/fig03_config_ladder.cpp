// Reproduces paper Fig. 3: end-to-end throughput of the same ViT model and
// hardware under successively better software configurations.
//
// Ladder (paper): PyTorch python loop (~431 img/s) -> DALI batched CPU
// decode (~446) -> GPU preprocessing (~842) -> TrIS+ONNX -> +dynamic
// batching (slight tput dip, tail 55 -> 38 ms) -> +tuned server parameters
// (~+300 img/s) -> +TensorRT (>1600 img/s); >8x overall.
//
// Steps 1-3 are the pre-serving-framework configurations and are evaluated
// with the calibrated analytic cost model of the python loop; steps 4-7 run
// the full simulated server.
#include "bench_util.h"
#include "core/autotuner.h"
#include "core/experiment.h"
#include "models/model_zoo.h"

using namespace serve;
using core::ExperimentSpec;
using serving::PreprocDevice;

namespace {

/// Python-loop throughput: decode a batch serially on one worker, copy it,
/// infer with eager PyTorch; phases do not overlap.
double pytorch_loop_tput(const hw::Calibration& calib, double decode_factor, bool gpu_decode) {
  sim::Simulator sim;
  hw::Platform platform{sim, {.calib = calib}};
  const auto& model = models::vit_base();
  const int b = 64;
  const double backend = calib.gpu.pytorch_factor;
  auto& gpu = platform.gpu(0);
  const double infer = gpu.inference_batch_seconds(model.flops(), b, backend, false);
  double batch_time = 0.0;
  if (!gpu_decode) {
    const double decode =
        decode_factor * b * platform.cpu().raw_preprocess_seconds(hw::kMediumImage, 224);
    const double h2d = gpu.link_seconds(static_cast<std::int64_t>(b) * model.input_tensor_bytes());
    batch_time = decode + h2d + infer;  // strictly sequential python loop
  } else {
    // DALI GPU pipelines prefetch asynchronously: decode overlaps inference.
    const double preproc =
        gpu.preproc_batch_fixed_seconds() + b * gpu.preproc_image_seconds(hw::kMediumImage);
    const double h2d =
        gpu.link_seconds(static_cast<std::int64_t>(b) * hw::kMediumImage.compressed_bytes);
    batch_time = std::max(preproc, infer) + h2d + 2e-3;  // python-side sync
  }
  return b / batch_time;
}

struct StepResult {
  std::string name;
  double tput;
  double p99_ms;  ///< -1 when the step has no server (python loop)
  double paper_tput;
};

ExperimentSpec server_spec(models::Backend backend, bool dynamic, int max_batch,
                           int concurrency) {
  ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.server.backend = backend;
  spec.server.preproc = PreprocDevice::kGpu;
  spec.server.dynamic_batching = dynamic;
  spec.server.fixed_batch = max_batch;
  spec.server.max_batch = max_batch;
  spec.concurrency = concurrency;
  spec.measure = sim::seconds(8.0);
  return spec;
}

StepResult run_server_step(const std::string& name, models::Backend backend, bool dynamic,
                           int max_batch, int concurrency, double paper_tput) {
  const auto r = core::run_experiment(server_spec(backend, dynamic, max_batch, concurrency));
  return {name, r.throughput_rps, r.p99_latency_s * 1e3, paper_tput};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("Figure 3", "Software-configuration ladder (ViT, medium image)");
  if (!rep.parse_cli(argc, argv)) return 2;
  const auto calib = hw::default_calibration();

  std::vector<StepResult> steps;
  steps.push_back({"1. PyTorch python loop (serial CPU decode)",
                   pytorch_loop_tput(calib, 1.0, false), -1, 431});
  steps.push_back({"2. + DALI batched CPU decode",
                   pytorch_loop_tput(calib, 0.9, false), -1, 446});
  steps.push_back({"3. + GPU preprocessing (DALI/nvJPEG)",
                   pytorch_loop_tput(calib, 1.0, true), -1, 842});
  steps.push_back(run_server_step("4. TrIS + ONNX runtime (fixed batch 64)",
                                  models::Backend::kOnnxRuntime, false, 64, 96, -1));
  // Dynamic batching first ships with Triton's conservative default batch
  // limit; the configuration search in step 6 raises it.
  steps.push_back(run_server_step("5. + dynamic batching", models::Backend::kOnnxRuntime, true,
                                  16, 96, -1));
  // 6. "Quick search on server settings": the tuner's default grid over batch
  // limit x concurrency, keeping GPU preprocessing.
  const auto tuned =
      core::tune_server(server_spec(models::Backend::kOnnxRuntime, true, 16, 96),
                        {.preproc_devices = {}})
          .best.result;
  steps.push_back({"6. + tuned server parameters", tuned.throughput_rps,
                   tuned.p99_latency_s * 1e3, -1});
  steps.push_back(run_server_step("7. + TensorRT", models::Backend::kTensorRT, true, 128, 512,
                                  1600));

  metrics::Table table({"configuration", "tput_img_s", "p99_ms", "paper_img_s"});
  for (const auto& s : steps) {
    table.add_row({s.name, s.tput, s.p99_ms < 0 ? std::string("-") : std::to_string(s.p99_ms),
                   s.paper_tput < 0 ? std::string("-") : std::to_string(s.paper_tput)});
  }
  rep.table("table", table);

  std::vector<bench::ShapeCheck> checks;
  checks.push_back({"each configuration step improves (or holds) throughput",
                    steps[1].tput >= steps[0].tput * 0.98 && steps[2].tput > steps[1].tput &&
                        steps[3].tput > steps[2].tput * 0.95 && steps[5].tput >= steps[4].tput &&
                        steps[6].tput > steps[5].tput,
                    "see table"});
  checks.push_back({"dynamic batching improves tail latency (paper: 55 -> 38 ms)",
                    steps[4].p99_ms < steps[3].p99_ms,
                    std::to_string(steps[3].p99_ms) + " -> " + std::to_string(steps[4].p99_ms) +
                        " ms"});
  checks.push_back({"tuning server parameters adds a sizeable gain (paper: ~+300 img/s)",
                    steps[5].tput - steps[4].tput > 100,
                    "+" + std::to_string(steps[5].tput - steps[4].tput) + " img/s"});
  checks.push_back({"TensorRT lands above 1600 img/s (paper)", steps[6].tput > 1600,
                    std::to_string(steps[6].tput) + " img/s"});
  const double span = steps[6].tput / steps[0].tput;
  checks.push_back({"large end-to-end gain from software alone (paper: >8x; see EXPERIMENTS.md)",
                    span > 4.0, std::to_string(span) + "x"});
  rep.checks(std::move(checks));
  return rep.finish();
}
