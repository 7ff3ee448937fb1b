// Reproduces paper Fig. 6: zero-load latency breakdown of ViT with JPEG
// preprocessing on TrIS for Small/Medium/Large images, CPU vs GPU
// preprocessing.
//
// Paper findings: CPU preprocessing wins for small images; preprocessing
// share reaches 56%/49% (medium, CPU/GPU) and up to 97%/88% (large).
#include <stdexcept>

#include "bench_util.h"
#include "core/experiment.h"
#include "models/model_zoo.h"

using namespace serve;
using core::ExperimentSpec;
using metrics::Stage;
using serving::PreprocDevice;

int main(int argc, char** argv) {
  bench::Reporter rep("Figure 6", "Zero-load latency breakdown (ViT, S/M/L, CPU vs GPU preproc)");
  if (!rep.parse_cli(argc, argv, true)) return 2;

  struct Row {
    const char* size;
    hw::ImageSpec image;
    PreprocDevice dev;
    double paper_preproc_share;  ///< -1 = not reported
  };
  const Row rows[] = {
      {"small", hw::kSmallImage, PreprocDevice::kCpu, -1},
      {"small", hw::kSmallImage, PreprocDevice::kGpu, -1},
      {"medium", hw::kMediumImage, PreprocDevice::kCpu, 0.56},
      {"medium", hw::kMediumImage, PreprocDevice::kGpu, 0.49},
      {"large", hw::kLargeImage, PreprocDevice::kCpu, 0.97},
      {"large", hw::kLargeImage, PreprocDevice::kGpu, 0.88},
  };

  metrics::Table table({"image", "preproc", "latency_ms", "preproc_%", "inference_%",
                        "transfer_%", "queue_%", "other_%", "paper_preproc_%"});
  double lat[2][3] = {};  // [dev][size] mean latency
  double share[2][3] = {};
  int size_idx = 0;
  for (const Row& row : rows) {
    const std::string label =
        std::string(row.size) + "/" + (row.dev == PreprocDevice::kCpu ? "cpu" : "gpu");
    ExperimentSpec spec;
    spec.server.model = models::vit_base();
    spec.server.preproc = row.dev;
    spec.server.trace_run_label = label;
    spec.image = row.image;
    spec.warmup = sim::seconds(0.5);
    rep.observe(spec.server, spec, true);
    const auto r = core::run_zero_load(spec);
    rep.audit(r, label);
    const double pre = r.stage_share(Stage::kPreprocess);
    const double inf = r.stage_share(Stage::kInference);
    const double xfer = r.stage_share(Stage::kTransfer);
    const double queue = r.stage_share(Stage::kQueue);
    const double other = 1.0 - pre - inf - xfer - queue;
    const int d = row.dev == PreprocDevice::kCpu ? 0 : 1;
    lat[d][size_idx / 2] = r.mean_latency_s;
    share[d][size_idx / 2] = pre;
    ++size_idx;
    table.add_row({std::string(row.size),
                   std::string(row.dev == PreprocDevice::kCpu ? "cpu" : "gpu"),
                   r.mean_latency_s * 1e3, 100 * pre, 100 * inf, 100 * xfer, 100 * queue,
                   100 * other,
                   row.paper_preproc_share < 0 ? std::string("-")
                                               : std::to_string(static_cast<int>(
                                                     100 * row.paper_preproc_share))});
  }
  rep.table("table", table);

  std::vector<bench::ShapeCheck> checks;
  checks.push_back({"CPU preprocessing outperforms GPU in latency for small images",
                    lat[0][0] < lat[1][0],
                    "cpu " + std::to_string(lat[0][0] * 1e3) + " ms vs gpu " +
                        std::to_string(lat[1][0] * 1e3) + " ms"});
  checks.push_back({"GPU latency markedly better for very large images",
                    lat[1][2] < 0.5 * lat[0][2],
                    "gpu " + std::to_string(lat[1][2] * 1e3) + " ms vs cpu " +
                        std::to_string(lat[0][2] * 1e3) + " ms"});
  checks.push_back({"preprocessing share grows with image size (both devices)",
                    share[0][0] < share[0][1] && share[0][1] < share[0][2] &&
                        share[1][0] < share[1][1] && share[1][1] < share[1][2],
                    "cpu small/med/large = " + std::to_string(100 * share[0][0]) + "/" +
                        std::to_string(100 * share[0][1]) + "/" +
                        std::to_string(100 * share[0][2]) + " %"});
  checks.push_back({"medium-image preprocessing ~56% (CPU) (paper: 56%)",
                    share[0][1] > 0.48 && share[0][1] < 0.64,
                    std::to_string(100 * share[0][1]) + " %"});
  checks.push_back({"medium-image preprocessing ~49% (GPU) (paper: 49%)",
                    share[1][1] > 0.41 && share[1][1] < 0.57,
                    std::to_string(100 * share[1][1]) + " %"});
  checks.push_back({"large-image preprocessing ~97% (CPU) (paper: 97%)",
                    share[0][2] > 0.93, std::to_string(100 * share[0][2]) + " %"});
  checks.push_back({"large-image preprocessing dominates on GPU too (paper: 88%)",
                    share[1][2] > 0.70, std::to_string(100 * share[1][2]) + " %"});
  rep.checks(std::move(checks));
  return rep.finish();
}
