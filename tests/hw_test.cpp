// Tests for the hardware models: cost functions, memory stager eviction,
// energy accounting, and the model zoo.
#include <gtest/gtest.h>

#include "hw/calibration.h"
#include "hw/devices.h"
#include "hw/energy.h"
#include "hw/gpu_memory.h"
#include "hw/image_spec.h"
#include "hw/presets.h"
#include "models/model_zoo.h"
#include "sim/simulator.h"

namespace serve {
namespace {

TEST(ImageSpec, PaperSizes) {
  EXPECT_EQ(hw::kSmallImage.pixels(), 60 * 70);
  EXPECT_EQ(hw::kMediumImage.pixels(), 500 * 375);
  EXPECT_EQ(hw::kLargeImage.pixels(), 3564LL * 2880);
  EXPECT_EQ(hw::kMediumImage.decoded_bytes(), 500 * 375 * 3);
  // Paper Sec 4.4: the fp32 tensor is ~5x the compressed medium image.
  const double ratio = static_cast<double>(hw::tensor_bytes(224)) /
                       static_cast<double>(hw::kMediumImage.compressed_bytes);
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 6.0);
}

TEST(CpuModel, PreprocessCostsScaleWithPixels) {
  sim::Simulator sim;
  hw::CpuModel cpu{sim, hw::default_calibration().cpu};
  const double s = cpu.preprocess_seconds(hw::kSmallImage, 224);
  const double m = cpu.preprocess_seconds(hw::kMediumImage, 224);
  const double l = cpu.preprocess_seconds(hw::kLargeImage, 224);
  EXPECT_LT(s, m);
  EXPECT_LT(m, l);
  // Calibration targets (DESIGN.md): medium ~3-4 ms, large >100 ms.
  EXPECT_GT(m, 2.5e-3);
  EXPECT_LT(m, 5.0e-3);
  EXPECT_GT(l, 0.1);
  // The in-server path is slower than the raw library loop.
  EXPECT_GT(cpu.preprocess_seconds(hw::kMediumImage, 224),
            cpu.raw_preprocess_seconds(hw::kMediumImage, 224));
}

TEST(GpuModel, BatchEfficiencyImprovesWithBatch) {
  sim::Simulator sim;
  const auto calib = hw::default_calibration();
  hw::GpuModel gpu{sim, calib.gpu, calib.pcie, 0};
  EXPECT_LT(gpu.batch_efficiency(1), gpu.batch_efficiency(8));
  EXPECT_LT(gpu.batch_efficiency(8), gpu.batch_efficiency(64));
  EXPECT_LE(gpu.batch_efficiency(1024), 1.0);
  // Per-image time falls with batch size.
  const double flops = models::vit_base().flops();
  const double b1 = gpu.inference_batch_seconds(flops, 1, 1.0, false);
  const double b32 = gpu.inference_batch_seconds(flops, 32, 1.0, false) / 32.0;
  EXPECT_GT(b1, 3.0 * b32);
}

TEST(GpuModel, BackendFactorsOrderThroughput) {
  const auto gpu = hw::default_calibration().gpu;
  EXPECT_LT(models::backend_factor(gpu, models::Backend::kPyTorch),
            models::backend_factor(gpu, models::Backend::kOnnxRuntime));
  EXPECT_LT(models::backend_factor(gpu, models::Backend::kOnnxRuntime),
            models::backend_factor(gpu, models::Backend::kTensorRT));
}

TEST(GpuModel, ContentionSlowsInference) {
  sim::Simulator sim;
  const auto calib = hw::default_calibration();
  hw::GpuModel gpu{sim, calib.gpu, calib.pcie, 0};
  const double flops = models::vit_base().flops();
  EXPECT_GT(gpu.inference_batch_seconds(flops, 16, 1.0, true),
            gpu.inference_batch_seconds(flops, 16, 1.0, false));
}

TEST(GpuModel, LargeImagesFallOffHardwareDecoder) {
  sim::Simulator sim;
  const auto calib = hw::default_calibration();
  hw::GpuModel gpu{sim, calib.gpu, calib.pcie, 0};
  // Marginal (per-pixel, excluding the per-image fixed cost) decode rate is
  // much slower for images beyond the hardware decoder's limits.
  const double fixed = calib.gpu.dali_image_fixed_s;
  const double m = (gpu.preproc_image_seconds(hw::kMediumImage) - fixed) /
                   static_cast<double>(hw::kMediumImage.pixels());
  const double l = (gpu.preproc_image_seconds(hw::kLargeImage) - fixed) /
                   static_cast<double>(hw::kLargeImage.pixels());
  EXPECT_GT(l, 2.0 * m);
}

TEST(GpuMemoryStager, EvictsLruUnderPressure) {
  hw::GpuMemoryStager stager{1000};
  const auto a = stager.stage(400);
  const auto b = stager.stage(400);
  EXPECT_EQ(stager.evictions(), 0u);
  const auto c = stager.stage(400);  // evicts a
  EXPECT_EQ(stager.evictions(), 1u);
  EXPECT_EQ(stager.claim(a), 400);  // evicted: must reload
  EXPECT_EQ(stager.claim(b), 0);    // resident
  EXPECT_EQ(stager.claim(c), 0);
  EXPECT_EQ(stager.staged_count(), 0u);
}

TEST(GpuMemoryStager, OversizedBufferAlwaysSpills) {
  hw::GpuMemoryStager stager{100};
  const auto h = stager.stage(1000);
  EXPECT_EQ(stager.claim(h), 1000);
}

TEST(GpuMemoryStager, ReleaseFreesWithoutReload) {
  hw::GpuMemoryStager stager{1000};
  const auto a = stager.stage(800);
  stager.release(a);
  const auto b = stager.stage(900);
  EXPECT_EQ(stager.claim(b), 0);
  EXPECT_EQ(stager.evictions(), 0u);
}

TEST(GpuMemoryStager, Errors) {
  EXPECT_THROW(hw::GpuMemoryStager{0}, std::invalid_argument);
  hw::GpuMemoryStager stager{100};
  EXPECT_THROW(stager.claim(42), std::logic_error);
  EXPECT_THROW(stager.stage(-1), std::invalid_argument);
}

TEST(GpuMemoryStager, StaleHandleThrowsAfterItsSlotIsReused) {
  hw::GpuMemoryStager stager{1000};
  const auto a = stager.stage(300);
  EXPECT_EQ(stager.claim(a), 0);
  const auto b = stager.stage(500);  // takes a's freed slot
  EXPECT_NE(a, b);
  EXPECT_NE(b, 0u);
  EXPECT_THROW(stager.claim(a), std::logic_error);
  EXPECT_THROW(stager.release(a), std::logic_error);
  // The failed calls left the live buffer untouched.
  EXPECT_EQ(stager.staged_count(), 1u);
  EXPECT_EQ(stager.resident_bytes(), 500);
  stager.release(b);
  EXPECT_THROW(stager.release(b), std::logic_error);  // double release
  EXPECT_EQ(stager.staged_count(), 0u);
  EXPECT_EQ(stager.resident_bytes(), 0);
}

TEST(GpuMemoryStager, EvictionOrderFollowsStagingOrderAcrossSlotReuse) {
  hw::GpuMemoryStager stager{300};
  const auto a = stager.stage(100);
  const auto b = stager.stage(100);
  const auto c = stager.stage(100);
  stager.release(b);                 // frees a middle LRU entry
  const auto d = stager.stage(100);  // reuses b's slot, newest in LRU order
  const auto e = stager.stage(100);  // evicts a (oldest), not d
  EXPECT_EQ(stager.evictions(), 1u);
  EXPECT_EQ(stager.claim(a), 100);
  stager.set_budget(100);  // evicts c then d; e survives
  EXPECT_EQ(stager.evictions(), 3u);
  EXPECT_EQ(stager.claim(d), 100);
  EXPECT_EQ(stager.claim(c), 100);
  EXPECT_EQ(stager.claim(e), 0);
  EXPECT_EQ(stager.reloaded_bytes(), 300);
}

TEST(Platform, ConstructionAndAccessors) {
  sim::Simulator sim;
  hw::Platform p{sim, {.gpu_count = 3}};
  EXPECT_EQ(p.gpu_count(), 3u);
  EXPECT_EQ(p.gpu(2).index(), 2);
  EXPECT_THROW((void)p.gpu(3), std::out_of_range);
  EXPECT_THROW((hw::Platform{sim, {.gpu_count = 0}}), std::invalid_argument);
}

TEST(Energy, IdleOnlyWhenNothingRan) {
  sim::Simulator sim;
  hw::Platform p{sim, {}};
  sim.run_until(sim::seconds(2.0));
  const auto e = hw::measure_energy(p, 0, sim.now());
  const auto& power = p.calib().power;
  EXPECT_NEAR(e.cpu_joules, power.cpu_idle_w * 2.0, 1e-6);
  EXPECT_NEAR(e.gpu_joules, power.gpu_idle_w * 2.0, 1e-6);
}

TEST(Energy, BusyComputeAddsEnergy) {
  sim::Simulator sim;
  hw::Platform p{sim, {}};
  auto burn = [&](sim::Simulator& s) -> sim::Process {
    auto tok = co_await p.gpu(0).compute().acquire();
    co_await s.wait(sim::seconds(1.0));
  };
  sim.spawn(burn(sim));
  sim.run_until(sim::seconds(2.0));
  const auto e = hw::measure_energy(p, 0, sim.now());
  const auto& power = p.calib().power;
  EXPECT_NEAR(e.gpu_joules, power.gpu_idle_w * 2.0 + power.gpu_compute_active_w * 1.0, 1e-6);
}

TEST(Presets, OrderedByCapability) {
  const auto desktop = hw::rtx4090_i9_preset();
  const auto server = hw::a100_server_preset();
  const auto edge = hw::edge_box_preset();
  EXPECT_GT(server.gpu.effective_flops, desktop.gpu.effective_flops);
  EXPECT_LT(edge.gpu.effective_flops, desktop.gpu.effective_flops / 10);
  EXPECT_GT(server.cpu.cores, desktop.cpu.cores);
  EXPECT_LT(edge.power.gpu_compute_active_w, desktop.power.gpu_compute_active_w / 5);
  EXPECT_GT(server.gpu.staging_budget_bytes, desktop.gpu.staging_budget_bytes);
}

TEST(Presets, LocalSubstrateOnlyRetunesCodecRates) {
  // The measured-substrate preset (calibrate --substrate) replaces just the
  // three codec rates; everything else must stay on the paper testbed so
  // figure shapes remain comparable.
  const auto local = hw::local_substrate_preset();
  const auto paper = hw::rtx4090_i9_preset();
  EXPECT_GT(local.cpu.decode_mpix_per_s, 0.0);
  EXPECT_GT(local.cpu.resize_mpix_per_s, local.cpu.decode_mpix_per_s);
  EXPECT_EQ(local.cpu.cores, paper.cpu.cores);
  EXPECT_EQ(local.gpu.effective_flops, paper.gpu.effective_flops);
  EXPECT_EQ(local.cpu.ingest_s, paper.cpu.ingest_s);
}

TEST(ModelZoo, SpansPaperRange) {
  const auto models = models::zoo();
  EXPECT_GE(models.size(), 15u);
  double min_gf = 1e9, max_gf = 0;
  bool has_seg = false, has_det = false, has_depth = false;
  for (const auto& m : models) {
    min_gf = std::min(min_gf, m.gflops);
    max_gf = std::max(max_gf, m.gflops);
    has_seg |= m.task == models::Task::kSegmentation;
    has_det |= m.task == models::Task::kDetection;
    has_depth |= m.task == models::Task::kDepthEstimation;
  }
  EXPECT_LT(min_gf, 1.0);    // sub-GFLOP models present
  EXPECT_GT(max_gf, 100.0);  // detection-scale models present
  EXPECT_TRUE(has_seg);
  EXPECT_TRUE(has_det);
  EXPECT_TRUE(has_depth);
}

TEST(ModelZoo, LookupAndNamedAccessors) {
  EXPECT_EQ(models::find_model("vit-base").name, "vit-base");
  EXPECT_THROW((void)models::find_model("nonexistent"), std::out_of_range);
  EXPECT_NEAR(models::vit_base().gflops, 17.58, 0.01);
  EXPECT_EQ(models::faster_rcnn().task, models::Task::kDetection);
  EXPECT_EQ(models::facenet().task, models::Task::kFaceIdentification);
  EXPECT_EQ(models::vit_base().input_tensor_bytes(), hw::tensor_bytes(224));
}

TEST(ModelZoo, NamesUnique) {
  const auto models = models::zoo();
  for (std::size_t i = 0; i < models.size(); ++i) {
    for (std::size_t j = i + 1; j < models.size(); ++j) {
      EXPECT_NE(models[i].name, models[j].name);
    }
  }
}

}  // namespace
}  // namespace serve
