// Fig. 7 companion sweep: ingress wire format x corpus popularity.
//
// The paper's Fig. 7 shows the ingress trade-off from the server's side:
// shipping the compressed JPEG keeps the wire thin but buys the server the
// whole preprocess stage, while shipping the raw fp32 tensor (~5x a medium
// JPEG) deletes preprocessing at the cost of fabric/PCIe bytes. This bench
// sweeps both axes end to end:
//
//  (a) ingress format x model size — for a fast model (TinyViT) the node is
//      transfer-sensitive and compressed JPEG wins; for a heavy model
//      (ViT-Base) inference dominates, the raw-tensor path dodges the DALI
//      SM-sharing tax, and raw tensor wins. The crossover is the figure.
//  (b) ingress cache x Zipf skew x cache size — with a content-addressed
//      preprocess cache (serving::IngressCache) over a skewed corpus, hit
//      rate — and with it throughput on a CPU-preprocessing deployment —
//      rises with popularity skew and with cache budget.
//
// Run with --audit to prove cache-hit requests keep a conserved (skipped,
// not dropped) preprocess stage; --trace-out additionally records the
// "ingress-cache-hit" blame spans `servescope traces` surfaces on critical
// paths.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/experiment.h"
#include "models/model_zoo.h"
#include "workload/corpus.h"
#include "workload/popularity.h"

using namespace serve;
using core::ExperimentSpec;
using serving::IngressFormat;
using serving::PreprocDevice;

namespace {

std::string fmt1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

std::string fmt3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("Figure 7 (ingress)",
                      "Ingress wire format x popularity: JPEG vs raw tensor, preprocess cache");
  if (!rep.parse_cli(argc, argv, true)) return 2;

  // ------------------------------------------------------------------
  // (a) Ingress format crossover vs model size (GPU-preprocessing node).
  // ------------------------------------------------------------------
  metrics::Table fmt_table({"model", "ingress", "wire_kB/img", "tput_img_s", "mean_lat_ms"});
  const models::ModelDesc* model_sweep[] = {&models::tiny_vit(), &models::vit_base()};
  double fmt_tput[2][2] = {};  // [model][0=jpeg, 1=tensor]
  for (int m = 0; m < 2; ++m) {
    const auto& model = *model_sweep[m];
    for (int f = 0; f < 2; ++f) {
      ExperimentSpec spec;
      spec.server.model = model;
      spec.server.preproc = PreprocDevice::kGpu;
      spec.server.ingress = f == 0 ? IngressFormat::kCompressedImage : IngressFormat::kRawTensor;
      spec.image = hw::kMediumImage;
      spec.gpu_count = 4;
      spec.concurrency = 2048;
      spec.measure = sim::seconds(6.0);
      if (rep.auditing()) spec.server.audit = true;
      const auto r = core::run_experiment(spec);
      const std::string label = std::string(model.name) + "/" +
                                std::string(serving::ingress_format_name(spec.server.ingress));
      rep.audit(r, label);
      fmt_tput[m][f] = r.throughput_rps;
      const std::int64_t wire = f == 0 ? hw::kMediumImage.compressed_bytes
                                       : model.input_tensor_bytes();
      fmt_table.add_row({std::string(model.name),
                         std::string(serving::ingress_format_name(spec.server.ingress)),
                         static_cast<double>(wire) / 1024.0, r.throughput_rps,
                         r.mean_latency_s * 1e3});
      rep.benchmark("ingress/" + label, r.mean_latency_s * 1e3,
                    {{"tput_img_s", r.throughput_rps}});
    }
  }
  rep.table("ingress_format", fmt_table);

  // ------------------------------------------------------------------
  // (b) Ingress cache: Zipf skew x cache size over a 2048-image corpus of
  //     large photos on a CPU-preprocessing deployment — there decode +
  //     resize is the binding resource, so every tensor-level hit deletes
  //     real work (on medium images the same deployment is staging-bound
  //     and a cache only trims latency, not throughput).
  // ------------------------------------------------------------------
  const int kDistinct = 2048;
  auto cache_run = [&](double skew, std::int64_t budget_mb, bool cache_on,
                       core::ExperimentResult& out, bool trace_row = false) {
    ExperimentSpec spec;
    spec.server.model = models::tiny_vit();
    spec.server.preproc = PreprocDevice::kCpu;
    spec.server.ingress_cache.enabled = cache_on;
    spec.server.ingress_cache.image_budget_bytes = budget_mb << 20;
    spec.server.ingress_cache.tensor_budget_bytes = budget_mb << 20;
    spec.image = hw::kLargeImage;
    spec.image_source = workload::popular_corpus_source(
        workload::make_spec_corpus(hw::kLargeImage, kDistinct),
        workload::PopularityModel::zipf(kDistinct, skew));
    spec.gpu_count = 1;
    spec.concurrency = 512;
    spec.measure = sim::seconds(6.0);
    // Tracing every run would overlay a dozen experiments on one virtual
    // timeline; capture spans (with the ingress-cache-hit blame) only for
    // the hottest cache row.
    if (rep.auditing()) spec.server.audit = true;
    if (trace_row) rep.observe(spec.server, spec, true);
    const auto r = core::run_experiment(spec);
    rep.audit(r, "cache/skew=" + fmt1(skew) + "/mb=" + std::to_string(budget_mb) +
                     (cache_on ? "" : "/off"));
    out = r;
    return r.throughput_rps;
  };

  metrics::Table cache_table(
      {"zipf_skew", "cache_MB", "hit_rate", "tensor_hits", "image_hits", "evictions",
       "tput_img_s", "mean_lat_ms"});
  const double skews[] = {0.0, 0.5, 0.9, 1.3};
  double skew_hit_rate[4] = {};
  double skew_tput[4] = {};
  core::ExperimentResult hot{};  // highest-skew row: used for the stage-shape check
  for (int i = 0; i < 4; ++i) {
    core::ExperimentResult r;
    skew_tput[i] = cache_run(skews[i], 64, true, r, /*trace_row=*/i == 3);
    skew_hit_rate[i] = r.cache_hit_rate;
    if (i == 3) hot = r;
    cache_table.add_row({skews[i], std::int64_t{64}, r.cache_hit_rate,
                         static_cast<std::int64_t>(r.cache_tensor_hits),
                         static_cast<std::int64_t>(r.cache_image_hits),
                         static_cast<std::int64_t>(r.cache_evictions), r.throughput_rps,
                         r.mean_latency_s * 1e3});
    rep.benchmark("cache/skew=" + fmt1(skews[i]) + "/mb=64", r.mean_latency_s * 1e3,
                  {{"hit_rate", r.cache_hit_rate}, {"tput_img_s", r.throughput_rps}});
  }

  const std::int64_t budgets_mb[] = {8, 32, 128};
  double size_hit_rate[3] = {};
  for (int i = 0; i < 3; ++i) {
    core::ExperimentResult r;
    const double tput = cache_run(0.9, budgets_mb[i], true, r);
    size_hit_rate[i] = r.cache_hit_rate;
    cache_table.add_row({0.9, budgets_mb[i], r.cache_hit_rate,
                         static_cast<std::int64_t>(r.cache_tensor_hits),
                         static_cast<std::int64_t>(r.cache_image_hits),
                         static_cast<std::int64_t>(r.cache_evictions), tput,
                         r.mean_latency_s * 1e3});
    rep.benchmark("cache/skew=0.9/mb=" + std::to_string(budgets_mb[i]), r.mean_latency_s * 1e3,
                  {{"hit_rate", r.cache_hit_rate}, {"tput_img_s", tput}});
  }

  core::ExperimentResult baseline;
  const double tput_no_cache = cache_run(1.3, 64, false, baseline);
  cache_table.add_row({1.3, std::int64_t{0}, 0.0, std::int64_t{0}, std::int64_t{0},
                       std::int64_t{0}, tput_no_cache, baseline.mean_latency_s * 1e3});
  rep.benchmark("cache/skew=1.3/off", baseline.mean_latency_s * 1e3,
                {{"hit_rate", 0.0}, {"tput_img_s", tput_no_cache}});
  rep.table("ingress_cache", cache_table);

  // ------------------------------------------------------------------
  // Shape checks: the crossover and the cache laws the figure claims.
  // ------------------------------------------------------------------
  std::vector<bench::ShapeCheck> checks;
  checks.push_back({"small model (TinyViT): compressed JPEG ingress beats raw tensor",
                    fmt_tput[0][0] > fmt_tput[0][1] * 1.02,
                    "jpeg " + fmt1(fmt_tput[0][0]) + " vs tensor " + fmt1(fmt_tput[0][1]) +
                        " img/s"});
  checks.push_back({"large model (ViT-Base): raw tensor ingress beats compressed JPEG",
                    fmt_tput[1][1] > fmt_tput[1][0] * 1.01,
                    "tensor " + fmt1(fmt_tput[1][1]) + " vs jpeg " + fmt1(fmt_tput[1][0]) +
                        " img/s"});
  checks.push_back(
      {"hit rate rises monotonically with Zipf skew at a fixed 64 MB cache",
       skew_hit_rate[0] < skew_hit_rate[1] && skew_hit_rate[1] < skew_hit_rate[2] &&
           skew_hit_rate[2] < skew_hit_rate[3],
       fmt3(skew_hit_rate[0]) + " < " + fmt3(skew_hit_rate[1]) + " < " +
           fmt3(skew_hit_rate[2]) + " < " + fmt3(skew_hit_rate[3])});
  checks.push_back({"hit rate rises monotonically with cache budget at fixed skew 0.9",
                    size_hit_rate[0] < size_hit_rate[1] && size_hit_rate[1] < size_hit_rate[2],
                    fmt3(size_hit_rate[0]) + " < " + fmt3(size_hit_rate[1]) + " < " +
                        fmt3(size_hit_rate[2])});
  checks.push_back({"hot corpus: cache hits buy end-to-end throughput vs cache-off",
                    skew_tput[3] > tput_no_cache * 1.02,
                    fmt1(skew_tput[3]) + " vs " + fmt1(tput_no_cache) + " img/s"});
  checks.push_back(
      {"cache-hit requests keep a conserved preprocess stage (skipped, not dropped)",
       hot.cache_tensor_hits > 0 && hot.stage_share(metrics::Stage::kPreprocess) > 0.0,
       std::to_string(hot.cache_tensor_hits) + " tensor hits, preprocess share " +
           fmt3(hot.stage_share(metrics::Stage::kPreprocess))});
  rep.checks(std::move(checks));
  return rep.finish();
}
