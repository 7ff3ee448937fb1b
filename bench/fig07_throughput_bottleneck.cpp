// Reproduces paper Fig. 7: comparative throughput of GPU preprocessing only,
// inference only, and the end-to-end server, for ViT-Base / ResNet-50 /
// TinyViT across the three image sizes.
//
// Paper findings: with large images preprocessing limits the system (ViT
// end-to-end = 19.5% of inference-only); for medium images preprocessing and
// inference are comparably fast; TinyViT small/medium is the outlier where
// end-to-end *beats* inference-only because inference-only must ship the ~5x
// larger raw tensor over PCIe.
#include <stdexcept>

#include "bench_util.h"
#include "core/experiment.h"
#include "models/model_zoo.h"

using namespace serve;
using core::ExperimentSpec;
using serving::PipelineMode;
using serving::PreprocDevice;

int main(int argc, char** argv) {
  bench::Reporter rep("Figure 7",
                      "Preprocessing-only vs inference-only vs end-to-end throughput");
  if (!rep.parse_cli(argc, argv, true)) return 2;

  metrics::Table table({"model", "image", "preproc_only", "inference_only", "end_to_end",
                        "e2e/inf_%"});
  const models::ModelDesc* sweep[] = {&models::vit_base(), &models::resnet50(),
                                      &models::tiny_vit()};
  const std::pair<const char*, hw::ImageSpec> sizes[] = {
      {"small", hw::kSmallImage}, {"medium", hw::kMediumImage}, {"large", hw::kLargeImage}};

  double vit_large_ratio = 0;
  double tiny_small_ratio = 0, tiny_medium_ratio = 0, tiny_large_ratio = 0;
  double resnet_medium_ratio = 0;

  for (const auto* model : sweep) {
    for (const auto& [size_name, image] : sizes) {
      double tput[3] = {};
      int i = 0;
      for (auto mode : {PipelineMode::kPreprocessOnly, PipelineMode::kInferenceOnly,
                        PipelineMode::kEndToEnd}) {
        ExperimentSpec spec;
        spec.server.model = *model;
        spec.server.preproc = PreprocDevice::kGpu;
        spec.server.mode = mode;
        spec.image = image;
        spec.concurrency = 512;
        spec.measure = sim::seconds(6.0);
        // Tracing every run would overlay 27 experiments on one virtual
        // timeline; restrict span capture to the ViT-Base rows.
        if (rep.auditing()) spec.server.audit = true;
        if (model == &models::vit_base()) rep.observe(spec.server, spec);
        const auto r = core::run_experiment(spec);
        rep.audit(r, std::string(model->name) + "/" + size_name + "/mode" + std::to_string(i));
        tput[i++] = r.throughput_rps;
      }
      const double ratio = tput[2] / tput[1];
      table.add_row({std::string(model->name), std::string(size_name), tput[0], tput[1],
                     tput[2], 100 * ratio});
      if (model == &models::vit_base() && image == hw::kLargeImage) vit_large_ratio = ratio;
      if (model == &models::tiny_vit()) {
        if (image == hw::kSmallImage) tiny_small_ratio = ratio;
        if (image == hw::kMediumImage) tiny_medium_ratio = ratio;
        if (image == hw::kLargeImage) tiny_large_ratio = ratio;
      }
      if (model == &models::resnet50() && image == hw::kMediumImage) resnet_medium_ratio = ratio;
    }
  }
  rep.table("table", table);

  std::vector<bench::ShapeCheck> checks;
  checks.push_back({"large images: ViT end-to-end ~19.5% of inference-only (paper)",
                    vit_large_ratio > 0.12 && vit_large_ratio < 0.28,
                    std::to_string(100 * vit_large_ratio) + " %"});
  checks.push_back({"TinyViT outlier: end-to-end FASTER than inference-only (small image)",
                    tiny_small_ratio > 1.02, std::to_string(100 * tiny_small_ratio) + " %"});
  checks.push_back({"TinyViT outlier: end-to-end FASTER than inference-only (medium image)",
                    tiny_medium_ratio > 1.02, std::to_string(100 * tiny_medium_ratio) + " %"});
  checks.push_back({"outlier disappears for large images (preprocessing-bound)",
                    tiny_large_ratio < 0.2, std::to_string(100 * tiny_large_ratio) + " %"});
  checks.push_back({"ResNet-50 medium: end-to-end tracks inference-only (no outlier)",
                    resnet_medium_ratio > 0.85 && resnet_medium_ratio < 1.1,
                    std::to_string(100 * resnet_medium_ratio) + " %"});
  rep.checks(std::move(checks));
  return rep.finish();
}
