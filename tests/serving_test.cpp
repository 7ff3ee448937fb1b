// Integration tests of the serving stack: server + clients on the simulated
// platform, checking conservation, breakdown accounting, and scheduler
// behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "hw/image_spec.h"
#include "models/model_zoo.h"
#include "serving/batcher.h"
#include "serving/client.h"
#include "serving/server.h"

namespace serve {
namespace {

using core::ExperimentSpec;
using metrics::Stage;
using serving::PipelineMode;
using serving::PreprocDevice;

ExperimentSpec base_spec() {
  ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.server.preproc = PreprocDevice::kGpu;
  spec.server.audit = true;  // every scenario below must pass the lifecycle audit
  spec.concurrency = 64;
  spec.warmup = sim::seconds(1.0);
  spec.measure = sim::seconds(4.0);
  return spec;
}

// Fails the test with the auditor's own report when a run had violations.
void expect_audit_clean(const core::ExperimentResult& r) {
  EXPECT_EQ(r.audit_violations, 0u);
  for (const auto& line : r.audit_report) ADD_FAILURE() << "audit: " << line;
}

TEST(InferenceServer, CompletesRequestsUnderLoad) {
  const auto r = core::run_experiment(base_spec());
  EXPECT_GT(r.completed, 1000u);
  EXPECT_GT(r.throughput_rps, 100.0);
  EXPECT_GT(r.mean_latency_s, 0.0);
  EXPECT_GE(r.p99_latency_s, r.p50_latency_s);
  expect_audit_clean(r);
}

TEST(InferenceServer, StageTimesSumToLatency) {
  // Per-request stage charges are wall-time segments: their sum must equal
  // the end-to-end latency (conservation of time).
  auto spec = base_spec();
  spec.concurrency = 32;
  const auto r = core::run_experiment(spec);
  ASSERT_GT(r.completed, 0u);
  EXPECT_NEAR(r.breakdown.mean_total(), r.mean_latency_s, r.mean_latency_s * 1e-6);
  expect_audit_clean(r);
}

TEST(InferenceServer, ZeroLoadBatchSizeIsOne) {
  auto spec = base_spec();
  const auto r = core::run_zero_load(spec);
  ASSERT_GT(r.completed, 10u);
  EXPECT_DOUBLE_EQ(r.mean_batch, 1.0);
}

TEST(InferenceServer, DynamicBatchingGrowsBatchesUnderLoad) {
  auto spec = base_spec();
  spec.concurrency = 512;
  const auto r = core::run_experiment(spec);
  EXPECT_GT(r.mean_batch, 8.0);
}

TEST(InferenceServer, CpuPreprocessingSlowerThanGpuForMediumImages) {
  auto spec = base_spec();
  spec.concurrency = 256;
  spec.server.preproc = PreprocDevice::kGpu;
  const auto gpu = core::run_experiment(spec);
  spec.server.preproc = PreprocDevice::kCpu;
  const auto cpu = core::run_experiment(spec);
  EXPECT_GT(gpu.throughput_rps, cpu.throughput_rps);
}

TEST(InferenceServer, CpuWinsZeroLoadLatencyForSmallImages) {
  auto spec = base_spec();
  spec.image = hw::kSmallImage;
  spec.server.preproc = PreprocDevice::kCpu;
  const auto cpu = core::run_zero_load(spec);
  spec.server.preproc = PreprocDevice::kGpu;
  const auto gpu = core::run_zero_load(spec);
  EXPECT_LT(cpu.mean_latency_s, gpu.mean_latency_s);
}

TEST(InferenceServer, LargerImagesRaisePreprocShare) {
  auto spec = base_spec();
  spec.server.preproc = PreprocDevice::kCpu;
  spec.image = hw::kMediumImage;
  const auto medium = core::run_zero_load(spec);
  spec.image = hw::kLargeImage;
  const auto large = core::run_zero_load(spec);
  EXPECT_GT(large.stage_share(Stage::kPreprocess), medium.stage_share(Stage::kPreprocess));
  EXPECT_GT(large.stage_share(Stage::kPreprocess), 0.9);
}

TEST(InferenceServer, PreprocessOnlyAndInferenceOnlyModes) {
  auto spec = base_spec();
  spec.server.mode = PipelineMode::kPreprocessOnly;
  const auto pre = core::run_experiment(spec);
  EXPECT_GT(pre.completed, 0u);
  EXPECT_DOUBLE_EQ(pre.breakdown.mean(Stage::kInference), 0.0);

  spec.server.mode = PipelineMode::kInferenceOnly;
  const auto inf = core::run_experiment(spec);
  EXPECT_GT(inf.completed, 0u);
  EXPECT_DOUBLE_EQ(inf.breakdown.mean(Stage::kPreprocess), 0.0);
}

TEST(InferenceServer, MultiGpuScalesMediumImageThroughput) {
  auto spec = base_spec();
  spec.concurrency = 512;
  const auto one = core::run_experiment(spec);
  spec.gpu_count = 2;
  const auto two = core::run_experiment(spec);
  EXPECT_GT(two.throughput_rps, one.throughput_rps * 1.6);
}

TEST(InferenceServer, HigherConcurrencyRaisesQueueShare) {
  auto spec = base_spec();
  spec.concurrency = 8;
  const auto low = core::run_experiment(spec);
  spec.concurrency = 1024;
  spec.measure = sim::seconds(6.0);
  const auto high = core::run_experiment(spec);
  EXPECT_GT(high.stage_share(Stage::kQueue), low.stage_share(Stage::kQueue));
  EXPECT_GT(high.stage_share(Stage::kQueue), 0.5);
}

TEST(InferenceServer, EnergyPositiveAndCpuPreprocCostsMoreCpuEnergy) {
  auto spec = base_spec();
  spec.concurrency = 256;
  spec.server.preproc = PreprocDevice::kGpu;
  const auto gpu = core::run_experiment(spec);
  spec.server.preproc = PreprocDevice::kCpu;
  const auto cpu = core::run_experiment(spec);
  EXPECT_GT(gpu.energy.total_joules(), 0.0);
  EXPECT_GT(cpu.cpu_joules_per_image(), gpu.cpu_joules_per_image());
}

TEST(InferenceServer, SubmitAfterShutdownIsFailAccountedNotThrown) {
  sim::Simulator sim;
  hw::Platform platform{sim, {}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  serving::InferenceServer server{platform, cfg};
  server.shutdown();
  auto req = std::make_shared<serving::Request>(sim, 1, hw::kMediumImage);
  EXPECT_NO_THROW(server.submit(req));
  // The request reaches a terminal state immediately: done signalled, failed
  // with the shutdown reason, and the server's accounting stays balanced.
  EXPECT_TRUE(req->done.is_set());
  EXPECT_TRUE(req->failed);
  EXPECT_EQ(req->fail_reason, serving::FailReason::kShutdown);
  EXPECT_FALSE(req->dropped);
  EXPECT_EQ(server.in_flight(), 0u);
  EXPECT_EQ(server.window().failed, 1u);
}

TEST(InferenceServer, ShutdownDrainsInFlightRequests) {
  sim::Simulator sim;
  hw::Platform platform{sim, {}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  serving::InferenceServer server{platform, cfg};
  auto req = std::make_shared<serving::Request>(sim, 1, hw::kMediumImage);
  server.submit(req);
  server.shutdown();
  EXPECT_EQ(server.in_flight(), 0u);
  EXPECT_TRUE(req->done.is_set());
}

TEST(InferenceServer, ShutdownFlushesPartialFixedBatch) {
  // With fixed-size batching a trailing partial batch must still complete.
  sim::Simulator sim;
  hw::Platform platform{sim, {}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  cfg.dynamic_batching = false;
  cfg.fixed_batch = 64;
  serving::InferenceServer server{platform, cfg};
  std::vector<serving::RequestPtr> reqs;
  for (int i = 0; i < 10; ++i) {
    reqs.push_back(std::make_shared<serving::Request>(sim, static_cast<std::uint64_t>(i + 1),
                                                      hw::kMediumImage));
    server.submit(reqs.back());
  }
  sim.run();
  EXPECT_EQ(server.in_flight(), 10u);  // stuck: batch of 64 never fills
  server.shutdown();
  EXPECT_EQ(server.in_flight(), 0u);
  for (const auto& r : reqs) EXPECT_TRUE(r->done.is_set());
}

TEST(InferenceServer, LoadSheddingBoundsTailUnderOverload) {
  auto spec = base_spec();
  spec.concurrency = 2048;
  spec.measure = sim::seconds(5.0);
  spec.server.shed_deadline = sim::milliseconds(150);
  const auto shed = core::run_experiment(spec);
  // Closed-loop 2048 clients on a ~1.8k img/s server: without shedding the
  // p99 sits near concurrency/throughput ~ 1.1 s; with it, near the deadline.
  EXPECT_LT(shed.p99_latency_s, 0.3);
  // Dropped requests must conserve stage time and count like completed ones.
  expect_audit_clean(shed);
  spec.server.shed_deadline = 0;
  const auto raw = core::run_experiment(spec);
  EXPECT_GT(raw.p99_latency_s, 0.8);
}

TEST(InferenceServer, NoDropsUnderLightLoad) {
  sim::Simulator sim;
  hw::Platform platform{sim, {}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  cfg.shed_deadline = sim::seconds(1.0);
  serving::InferenceServer server{platform, cfg};
  serving::ClosedLoopClients clients{
      server, {.concurrency = 4, .image_source = serving::fixed_image(hw::kMediumImage)}};
  clients.start();
  sim.run_until(sim::seconds(3.0));
  EXPECT_EQ(server.window().dropped, 0u);
  EXPECT_GT(server.window().completed, 100u);
  clients.stop();
  sim.run();
  server.shutdown();
}

TEST(InferenceServer, DroppedRequestsSignalCompletionWithFlag) {
  sim::Simulator sim;
  hw::Platform platform{sim, {}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  cfg.shed_deadline = sim::nanoseconds(1);  // everything blows the deadline
  serving::InferenceServer server{platform, cfg};
  auto req = std::make_shared<serving::Request>(sim, 1, hw::kMediumImage);
  server.submit(req);
  sim.run();
  EXPECT_TRUE(req->done.is_set());
  EXPECT_TRUE(req->dropped);
  EXPECT_EQ(server.window().dropped, 1u);
  EXPECT_EQ(server.in_flight(), 0u);
  server.shutdown();
}

TEST(InferenceServer, TwoModelsShareOneGpu) {
  // Two endpoints deployed on the same platform contend for the same
  // compute engine — the deployment style of the Fig. 10 multi-DNN system.
  sim::Simulator sim;
  hw::Platform platform{sim, {}};
  serving::ServerConfig big;
  big.model = models::vit_base();
  serving::ServerConfig small;
  small.model = models::tiny_vit();
  serving::InferenceServer server_big{platform, big};
  serving::InferenceServer server_small{platform, small};
  serving::ClosedLoopClients clients_big{
      server_big, {.concurrency = 64, .image_source = serving::fixed_image(hw::kMediumImage)}};
  serving::ClosedLoopClients clients_small{
      server_small, {.concurrency = 64, .image_source = serving::fixed_image(hw::kMediumImage)}};
  clients_big.start();
  clients_small.start();
  sim.run_until(sim::seconds(2.0));
  server_big.begin_window();
  server_small.begin_window();
  sim.run_until(sim::seconds(8.0));
  const double tput_big = server_big.window().throughput();
  const double tput_small = server_small.window().throughput();
  // Both tenants make progress on the shared engine...
  EXPECT_GT(tput_big, 100.0);
  EXPECT_GT(tput_small, 100.0);
  // ...but sharing costs the big model vs its ~1.8k img/s solo rate.
  EXPECT_LT(tput_big, 1600.0);
  clients_big.stop();
  clients_small.stop();
  sim.run();
  server_big.shutdown();
  server_small.shutdown();
}

TEST(Batcher, FixedModeWaitsForFullBatch) {
  sim::Simulator sim;
  serving::Batcher<int> batcher{sim, {.dynamic = false, .max_batch = 8, .fixed_batch = 4}};
  std::vector<int> batch;
  sim::Event ready{sim};
  sim.spawn(batcher.collect_into(batch, ready));
  for (int i = 0; i < 3; ++i) batcher.input().try_put(i);
  sim.run();
  EXPECT_FALSE(ready.is_set());  // only 3 of 4 items
  batcher.input().try_put(3);
  sim.run();
  EXPECT_TRUE(ready.is_set());
  EXPECT_EQ(batch.size(), 4u);
}

TEST(Batcher, DynamicModeDrainsQueueUpToMax) {
  sim::Simulator sim;
  serving::Batcher<int> batcher{sim, {.dynamic = true, .max_batch = 4}};
  for (int i = 0; i < 7; ++i) batcher.input().try_put(i);
  std::vector<int> batch;
  sim::Event ready{sim};
  sim.spawn(batcher.collect_into(batch, ready));
  sim.run();
  EXPECT_EQ(batch.size(), 4u);  // capped at max_batch
  EXPECT_EQ(batcher.queued(), 3u);
}

TEST(Batcher, QueueDelayLingersToFillBatch) {
  sim::Simulator sim;
  serving::Batcher<int> batcher{
      sim, {.dynamic = true, .max_batch = 4, .max_queue_delay = sim::milliseconds(5)}};
  std::vector<int> batch;
  sim::Event ready{sim};
  sim.spawn(batcher.collect_into(batch, ready));
  batcher.input().try_put(0);
  sim.schedule_at(sim::milliseconds(2), [&] { batcher.input().try_put(1); });
  sim.schedule_at(sim::milliseconds(10), [&] { batcher.input().try_put(2); });  // too late
  sim.run();
  EXPECT_EQ(batch.size(), 2u);
}

TEST(Batcher, ClosedInputYieldsEmptyBatch) {
  sim::Simulator sim;
  serving::Batcher<int> batcher{sim, {}};
  batcher.input().close();
  std::vector<int> batch{1, 2, 3};
  sim::Event ready{sim};
  sim.spawn(batcher.collect_into(batch, ready));
  sim.run();
  EXPECT_TRUE(ready.is_set());
  EXPECT_TRUE(batch.empty());
}

}  // namespace
}  // namespace serve

// --- Deployment config files ---------------------------------------------------

#include "serving/config_file.h"

namespace serve {
namespace {

TEST(ConfigFile, ParsesFullConfig) {
  const auto cfg = serving::parse_server_config(R"(
# demo endpoint
model = vit-base
backend = onnxruntime
preprocessing = cpu
dynamic_batching = false
max_batch = 32
fixed_batch = 16
max_queue_delay_us = 1500
shed_deadline_ms = 250
)");
  EXPECT_EQ(cfg.model.name, "vit-base");
  EXPECT_EQ(cfg.backend, models::Backend::kOnnxRuntime);
  EXPECT_EQ(cfg.preproc, serving::PreprocDevice::kCpu);
  EXPECT_FALSE(cfg.dynamic_batching);
  EXPECT_EQ(cfg.max_batch, 32);
  EXPECT_EQ(cfg.fixed_batch, 16);
  EXPECT_EQ(cfg.max_queue_delay, sim::microseconds(1500));
  EXPECT_EQ(cfg.shed_deadline, sim::milliseconds(250));
}

TEST(ConfigFile, DefaultsAndRequiredModel) {
  const auto cfg = serving::parse_server_config("model = resnet-50\n");
  EXPECT_TRUE(cfg.dynamic_batching);
  EXPECT_EQ(cfg.backend, models::Backend::kTensorRT);
  EXPECT_THROW((void)serving::parse_server_config("backend = tensorrt\n"), std::invalid_argument);
}

TEST(ConfigFile, RejectsBadInput) {
  EXPECT_THROW((void)serving::parse_server_config("model = no-such-model\n"), std::out_of_range);
  EXPECT_THROW((void)serving::parse_server_config("model = vit-base\nbackend = tvm\n"),
               std::invalid_argument);
  EXPECT_THROW((void)serving::parse_server_config("model = vit-base\nmystery_knob = 3\n"),
               std::invalid_argument);
  EXPECT_THROW((void)serving::parse_server_config("model = vit-base\nmax_batch = twelve\n"),
               std::invalid_argument);
  EXPECT_THROW((void)serving::parse_server_config("model = vit-base\nthis line has no equals\n"),
               std::invalid_argument);
  // Time keys take plain decimals down to 1 ns, nothing finer or signed.
  for (const char* line : {"shed_deadline_ms = 0.0000001", "max_queue_delay_us = 1.2.3",
                           "shed_deadline_ms = -0.5", "retry_timeout_ms = 2e+06"}) {
    EXPECT_THROW((void)serving::parse_server_config(std::string("model = vit-base\n") + line),
                 std::invalid_argument)
        << line;
  }
  EXPECT_EQ(serving::parse_server_config("model = vit-base\nshed_deadline_ms = 0.000001\n")
                .shed_deadline,
            1);
}

/// format_server_config writes every field so that parse_server_config reads
/// it back exactly, and formatting is a fixed point.
void expect_exact_round_trip(const serving::ServerConfig& cfg) {
  const std::string text = serving::format_server_config(cfg);
  SCOPED_TRACE(text);
  const auto round = serving::parse_server_config(text);
  EXPECT_EQ(round.model.name, cfg.model.name);
  EXPECT_EQ(round.backend, cfg.backend);
  EXPECT_EQ(round.preproc, cfg.preproc);
  EXPECT_EQ(round.mode, cfg.mode);
  EXPECT_EQ(round.ingress, cfg.ingress);
  EXPECT_EQ(round.ingress_cache.enabled, cfg.ingress_cache.enabled);
  EXPECT_EQ(round.ingress_cache.image_budget_bytes, cfg.ingress_cache.image_budget_bytes);
  EXPECT_EQ(round.ingress_cache.tensor_budget_bytes, cfg.ingress_cache.tensor_budget_bytes);
  EXPECT_EQ(round.ingress_cache.lookup_s, cfg.ingress_cache.lookup_s);
  EXPECT_EQ(round.dynamic_batching, cfg.dynamic_batching);
  EXPECT_EQ(round.max_batch, cfg.effective_max_batch());
  EXPECT_EQ(round.instance_count, cfg.instance_count);
  EXPECT_EQ(round.fixed_batch, cfg.fixed_batch);
  EXPECT_EQ(round.max_queue_delay, cfg.max_queue_delay);
  EXPECT_EQ(round.shed_deadline, cfg.shed_deadline);
  EXPECT_EQ(round.audit, cfg.audit);
  EXPECT_EQ(round.validate_payloads, cfg.validate_payloads);
  EXPECT_EQ(round.retry.enabled, cfg.retry.enabled);
  EXPECT_EQ(round.retry.max_attempts, cfg.retry.max_attempts);
  EXPECT_EQ(round.retry.timeout, cfg.retry.timeout);
  EXPECT_EQ(round.retry.backoff_base, cfg.retry.backoff_base);
  EXPECT_EQ(round.retry.backoff_cap, cfg.retry.backoff_cap);
  EXPECT_EQ(round.retry.retry_budget, cfg.retry.retry_budget);
  EXPECT_EQ(round.retry.budget_refill_per_success, cfg.retry.budget_refill_per_success);
  EXPECT_EQ(round.breaker.enabled, cfg.breaker.enabled);
  EXPECT_EQ(round.breaker.queue_depth_open, cfg.breaker.queue_depth_open);
  EXPECT_EQ(round.breaker.error_rate_open, cfg.breaker.error_rate_open);
  EXPECT_EQ(round.breaker.open_duration, cfg.breaker.open_duration);
  EXPECT_EQ(round.breaker.half_open_probes, cfg.breaker.half_open_probes);
  EXPECT_EQ(round.degrade.enabled, cfg.degrade.enabled);
  EXPECT_EQ(round.degrade.hysteresis, cfg.degrade.hysteresis);
  EXPECT_EQ(round.broker_publish.publish_results, cfg.broker_publish.publish_results);
  EXPECT_EQ(round.broker_publish.retry_enabled, cfg.broker_publish.retry_enabled);
  EXPECT_EQ(round.broker_publish.max_attempts, cfg.broker_publish.max_attempts);
  EXPECT_EQ(round.broker_publish.backoff_base, cfg.broker_publish.backoff_base);
  EXPECT_EQ(round.broker_publish.poll_interval, cfg.broker_publish.poll_interval);
  const auto& h = cfg.balancer.health;
  EXPECT_EQ(round.balancer.policy, cfg.balancer.policy);
  EXPECT_EQ(round.balancer.health.enabled, h.enabled);
  EXPECT_EQ(round.balancer.health.probe_interval, h.probe_interval);
  EXPECT_EQ(round.balancer.health.probe_timeout, h.probe_timeout);
  EXPECT_EQ(round.balancer.health.probe_cost_s, h.probe_cost_s);
  EXPECT_EQ(round.balancer.health.ewma_alpha, h.ewma_alpha);
  EXPECT_EQ(round.balancer.health.eject_score, h.eject_score);
  EXPECT_EQ(round.balancer.health.eject_probe_failures, h.eject_probe_failures);
  EXPECT_EQ(round.balancer.health.eject_duration, h.eject_duration);
  EXPECT_EQ(round.balancer.health.rejoin_probes, h.rejoin_probes);
  EXPECT_EQ(round.balancer.hedge.enabled, cfg.balancer.hedge.enabled);
  EXPECT_EQ(round.balancer.hedge.deadline, cfg.balancer.hedge.deadline);
  EXPECT_EQ(round.balancer.hedge.budget, cfg.balancer.hedge.budget);
  EXPECT_EQ(round.balancer.hedge.budget_refill_per_success,
            cfg.balancer.hedge.budget_refill_per_success);
  EXPECT_EQ(serving::format_server_config(round), text);
}

TEST(ConfigFile, FormatParsesBackIdentically) {
  serving::ServerConfig cfg;
  cfg.model = models::tiny_vit();
  cfg.backend = models::Backend::kPyTorch;
  cfg.preproc = serving::PreprocDevice::kCpu;
  cfg.max_batch = 48;
  cfg.shed_deadline = sim::milliseconds(100);
  const auto round = serving::parse_server_config(serving::format_server_config(cfg));
  EXPECT_EQ(round.model.name, cfg.model.name);
  EXPECT_EQ(round.backend, cfg.backend);
  EXPECT_EQ(round.preproc, cfg.preproc);
  EXPECT_EQ(round.max_batch, cfg.max_batch);
  EXPECT_EQ(round.shed_deadline, cfg.shed_deadline);
  expect_exact_round_trip(cfg);

  // Time fields below the key's unit, past 6 significant digits, or at the
  // top of the parser's range; doubles a 6-digit stream would round.
  const std::vector<void (*)(serving::ServerConfig&)> edits = {
      [](serving::ServerConfig& c) { c.shed_deadline = sim::microseconds(1); },
      [](serving::ServerConfig& c) { c.max_queue_delay = 1'500; },
      [](serving::ServerConfig& c) { c.retry.timeout = sim::seconds(2000); },
      [](serving::ServerConfig& c) { c.retry.backoff_cap = 1; },
      [](serving::ServerConfig& c) {
        c.balancer.hedge.deadline = std::int64_t{2'147'483'647} * 1'000'000 + 999'999;
      },
      [](serving::ServerConfig& c) { c.breaker.error_rate_open = 1.0 / 3.0; },
      [](serving::ServerConfig& c) { c.retry.budget_refill_per_success = 0.1 + 0.2; },
      [](serving::ServerConfig& c) { c.ingress_cache.lookup_s = 1e-6 / 3.0; },
      [](serving::ServerConfig& c) { c.balancer.health.probe_cost_s = 0.1 + 0.2; },
  };
  for (const auto& edit : edits) {
    serving::ServerConfig c;
    c.model = models::resnet50();
    edit(c);
    expect_exact_round_trip(c);
  }
  // The request-route matrix deployments (tests/trace_store_test.cpp).
  for (const auto dev : {serving::PreprocDevice::kGpu, serving::PreprocDevice::kCpu}) {
    for (const auto mode :
         {serving::PipelineMode::kEndToEnd, serving::PipelineMode::kPreprocessOnly,
          serving::PipelineMode::kInferenceOnly}) {
      for (const auto fmt :
           {serving::IngressFormat::kCompressedImage, serving::IngressFormat::kRawTensor}) {
        serving::ServerConfig c;
        c.model = models::resnet50();
        c.preproc = dev;
        c.mode = mode;
        c.ingress = fmt;
        expect_exact_round_trip(c);
        c.ingress_cache = {.enabled = true, .tensor_budget_bytes = 4LL << 20};
        c.degrade.enabled = true;
        c.validate_payloads = true;
        c.broker_publish = {.publish_results = true, .retry_enabled = true};
        c.shed_deadline = sim::milliseconds(15);
        c.breaker = {.enabled = true, .queue_depth_open = 64,
                     .open_duration = sim::milliseconds(20)};
        expect_exact_round_trip(c);
      }
    }
  }
}

TEST(ConfigFile, IngressKeysRoundTrip) {
  serving::ServerConfig cfg;
  cfg.model = models::tiny_vit();
  cfg.ingress = serving::IngressFormat::kRawTensor;
  cfg.ingress_cache.enabled = true;
  cfg.ingress_cache.image_budget_bytes = 48LL << 20;
  cfg.ingress_cache.tensor_budget_bytes = 96LL << 20;
  cfg.ingress_cache.lookup_s = 35e-6;
  const auto round = serving::parse_server_config(serving::format_server_config(cfg));
  EXPECT_EQ(round.ingress, serving::IngressFormat::kRawTensor);
  EXPECT_TRUE(round.ingress_cache.enabled);
  EXPECT_EQ(round.ingress_cache.image_budget_bytes, 48LL << 20);
  EXPECT_EQ(round.ingress_cache.tensor_budget_bytes, 96LL << 20);
  EXPECT_DOUBLE_EQ(round.ingress_cache.lookup_s, 35e-6);
}

TEST(ConfigFile, BalancerKeysRoundTrip) {
  serving::ServerConfig cfg;
  cfg.model = models::tiny_vit();
  cfg.balancer.policy = serving::BalancerPolicy::kLatencyWeighted;
  cfg.balancer.health.enabled = true;
  cfg.balancer.health.probe_interval = sim::milliseconds(20);
  cfg.balancer.health.probe_timeout = sim::milliseconds(10);
  cfg.balancer.health.probe_cost_s = 150e-6;
  cfg.balancer.health.ewma_alpha = 0.3;
  cfg.balancer.health.eject_score = 0.4;
  cfg.balancer.health.eject_probe_failures = 5;
  cfg.balancer.health.eject_duration = sim::milliseconds(750);
  cfg.balancer.health.rejoin_probes = 4;
  cfg.balancer.hedge.enabled = true;
  cfg.balancer.hedge.deadline = sim::milliseconds(35);
  cfg.balancer.hedge.budget = 128.0;
  cfg.balancer.hedge.budget_refill_per_success = 0.25;
  const auto round = serving::parse_server_config(serving::format_server_config(cfg));
  EXPECT_EQ(round.balancer.policy, serving::BalancerPolicy::kLatencyWeighted);
  EXPECT_TRUE(round.balancer.health.enabled);
  EXPECT_EQ(round.balancer.health.probe_interval, sim::milliseconds(20));
  EXPECT_EQ(round.balancer.health.probe_timeout, sim::milliseconds(10));
  EXPECT_DOUBLE_EQ(round.balancer.health.probe_cost_s, 150e-6);
  EXPECT_DOUBLE_EQ(round.balancer.health.ewma_alpha, 0.3);
  EXPECT_DOUBLE_EQ(round.balancer.health.eject_score, 0.4);
  EXPECT_EQ(round.balancer.health.eject_probe_failures, 5);
  EXPECT_EQ(round.balancer.health.eject_duration, sim::milliseconds(750));
  EXPECT_EQ(round.balancer.health.rejoin_probes, 4);
  EXPECT_TRUE(round.balancer.hedge.enabled);
  EXPECT_EQ(round.balancer.hedge.deadline, sim::milliseconds(35));
  EXPECT_DOUBLE_EQ(round.balancer.hedge.budget, 128.0);
  EXPECT_DOUBLE_EQ(round.balancer.hedge.budget_refill_per_success, 0.25);
}

TEST(ConfigFile, BalancerKeysRejectBadValues) {
  EXPECT_THROW((void)serving::parse_server_config("model = vit-base\nbalancer_policy = dns\n"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)serving::parse_server_config("model = vit-base\nhealth_probe_interval_ms = 0\n"),
      std::invalid_argument);
  EXPECT_THROW((void)serving::parse_server_config("model = vit-base\nhealth_ewma_alpha = 1.5\n"),
               std::invalid_argument);
  EXPECT_THROW((void)serving::parse_server_config("model = vit-base\nhealth_eject_score = 2\n"),
               std::invalid_argument);
  EXPECT_THROW((void)serving::parse_server_config("model = vit-base\nhedge_deadline_ms = -5\n"),
               std::invalid_argument);
  EXPECT_THROW((void)serving::parse_server_config("model = vit-base\nhedge_budget = -1\n"),
               std::invalid_argument);
}

TEST(ConfigFile, IngressKeysRejectBadValues) {
  EXPECT_THROW((void)serving::parse_server_config("model = vit-base\ningress = png\n"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)serving::parse_server_config("model = vit-base\ningress_cache_image_mb = -1\n"),
      std::invalid_argument);
  EXPECT_THROW(
      (void)serving::parse_server_config("model = vit-base\ningress_cache_lookup_us = -5\n"),
      std::invalid_argument);
  EXPECT_THROW((void)serving::parse_server_config("model = vit-base\ningress_cache = maybe\n"),
               std::invalid_argument);
}

TEST(ConfigFile, ErrorsCarryLineNumbers) {
  try {
    (void)serving::parse_server_config("model = vit-base\n\nmax_batch = banana\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
  try {
    (void)serving::parse_server_config("model = no-such-model\n");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos) << e.what();
  }
  try {
    (void)serving::parse_server_config("model = vit-base\nmode = sideways\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(ConfigFile, RejectsOutOfRangeValues) {
  const auto bad = [](const std::string& line) {
    EXPECT_THROW((void)serving::parse_server_config("model = vit-base\n" + line + "\n"),
                 std::invalid_argument)
        << line;
  };
  bad("instance_count = 0");
  bad("fixed_batch = 0");
  bad("max_batch = -1");
  bad("max_queue_delay_us = -5");
  bad("retry_max_attempts = 0");
  bad("retry_timeout_ms = -1");
  bad("retry_budget = -0.5");
  bad("breaker_queue_depth = 0");
  bad("breaker_error_rate = 1.5");
  bad("breaker_half_open_probes = 0");
  bad("degrade_hysteresis_ms = -10");
  bad("broker_max_attempts = 0");
  bad("max_batch = 12junk");
}

TEST(ConfigFile, EveryFieldRoundTrips) {
  // Set every ServerConfig field away from its default, format, re-parse, and
  // compare field by field.
  serving::ServerConfig cfg;
  cfg.model = models::tiny_vit();
  cfg.backend = models::Backend::kPyTorch;
  cfg.preproc = serving::PreprocDevice::kCpu;
  cfg.mode = serving::PipelineMode::kPreprocessOnly;
  cfg.dynamic_batching = false;
  cfg.max_batch = 48;  // format writes effective_max_batch(); set it explicitly
  cfg.instance_count = 3;
  cfg.fixed_batch = 12;
  cfg.max_queue_delay = sim::microseconds(2500);
  cfg.shed_deadline = sim::milliseconds(150);
  cfg.audit = true;
  cfg.validate_payloads = true;
  cfg.retry.enabled = true;
  cfg.retry.max_attempts = 7;
  cfg.retry.timeout = sim::milliseconds(450);
  cfg.retry.backoff_base = sim::milliseconds(3);
  cfg.retry.backoff_cap = sim::milliseconds(750);
  cfg.retry.retry_budget = 32.5;
  cfg.retry.budget_refill_per_success = 0.25;
  cfg.breaker.enabled = true;
  cfg.breaker.queue_depth_open = 96;
  cfg.breaker.error_rate_open = 0.75;
  cfg.breaker.open_duration = sim::milliseconds(220);
  cfg.breaker.half_open_probes = 5;
  cfg.degrade.enabled = true;
  cfg.degrade.hysteresis = sim::milliseconds(90);
  cfg.broker_publish.publish_results = true;
  cfg.broker_publish.retry_enabled = true;
  cfg.broker_publish.max_attempts = 6;
  cfg.broker_publish.backoff_base = sim::milliseconds(4);
  cfg.broker_publish.poll_interval = sim::milliseconds(25);

  expect_exact_round_trip(cfg);
}

TEST(ConfigFile, LoadFromDisk) {
  const auto path = std::filesystem::temp_directory_path() / "servescope_cfg_test.cfg";
  {
    std::ofstream out{path};
    out << "model = vit-base\npreprocessing = gpu\n";
  }
  const auto cfg = serving::load_server_config(path);
  EXPECT_EQ(cfg.model.name, "vit-base");
  std::filesystem::remove(path);
  EXPECT_THROW((void)serving::load_server_config(path), std::invalid_argument);
}

/// format_server_config of a default resnet-50 deployment: every key, in
/// write order, with its default's spelling.
constexpr const char* kDefaultConfigText = R"(model = resnet-50
backend = tensorrt
preprocessing = gpu
mode = end_to_end
ingress = jpeg
ingress_cache = false
ingress_cache_image_mb = 64
ingress_cache_tensor_mb = 64
ingress_cache_lookup_us = 20
dynamic_batching = true
max_batch = 64
instance_count = 1
fixed_batch = 64
max_queue_delay_us = 0
shed_deadline_ms = 0
audit = false
validate_payloads = false
retry = false
retry_max_attempts = 3
retry_timeout_ms = 0
retry_backoff_base_ms = 5
retry_backoff_cap_ms = 500
retry_budget = 64
retry_budget_refill = 0.1
circuit_breaker = false
breaker_queue_depth = 2048
breaker_error_rate = 0.5
breaker_open_ms = 100
breaker_half_open_probes = 8
degrade = false
degrade_hysteresis_ms = 50
broker_publish = false
broker_retry = false
broker_max_attempts = 3
broker_backoff_ms = 2
broker_poll_ms = 10
balancer_policy = round_robin
health_checks = false
health_probe_interval_ms = 50
health_probe_timeout_ms = 25
health_probe_cost_us = 200
health_ewma_alpha = 0.2
health_eject_score = 0.5
health_eject_probe_failures = 3
health_eject_ms = 500
health_rejoin_probes = 3
hedge = false
hedge_deadline_ms = 50
hedge_budget = 64
hedge_budget_refill = 0.1
)";

TEST(ConfigFile, DefaultFormatMatchesGolden) {
  serving::ServerConfig cfg;
  cfg.model = models::resnet50();
  EXPECT_EQ(serving::format_server_config(cfg), kDefaultConfigText);
}

/// What parse_server_config makes of `text`: the config it formats to, or
/// the exception's type and message.
std::string config_outcome(const std::string& text) {
  try {
    return serving::format_server_config(serving::parse_server_config(text));
  } catch (const std::invalid_argument& e) {
    return std::string("invalid_argument: ") + e.what();
  } catch (const std::out_of_range& e) {
    return std::string("out_of_range: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

/// Value tokens at the edges of every key kind: int limits, junk, C-literal
/// forms, non-finite doubles, sub-ns and exponent times, every enum and
/// boolean spelling (and a display spelling config text must reject).
const std::vector<std::string> kEdgeTokens = {
    "0", "1", "-1", "2147483648", "-2147483648", "12junk", "0x10", "nan", "inf", "-0",
    "0.0000001", "1.2.3", "2e+06", "true", "false", "yes", "no", "tensorrt", "onnxruntime",
    "pytorch", "cpu", "gpu", "end_to_end", "preprocess_only", "inference_only", "jpeg", "tensor",
    "round_robin", "random", "least_outstanding", "p2c", "latency_weighted", "round-robin",
    "resnet-50", "vit-base", "maybe", " 5", "+5", ".5", "5."};

TEST(ConfigFile, OutcomeCorpusMatchesGolden) {
  // Every key of the golden text with every edge token, then whole files:
  // empty, comment-only, model missing, repeated keys, CRLF and padding,
  // and malformed lines.
  std::vector<std::string> inputs;
  std::istringstream golden{kDefaultConfigText};
  for (std::string line; std::getline(golden, line);) {
    const std::string key = line.substr(0, line.find(" = "));
    for (const auto& token : kEdgeTokens) {
      inputs.push_back("model = resnet-50\n" + key + " = " + token + "\n");
    }
  }
  for (const char* text :
       {"", "# comment only\n\n", "backend = pytorch\n",
        "model = vit-base\nmodel = resnet-50\nbackend = pytorch\nbackend = onnxruntime\n",
        "  model = resnet-50  \r\n\t# indented comment\r\nmax_batch=7\r\n",
        "model = resnet-50\nno equals here\n", "model = resnet-50\n = 5\n",
        "model = resnet-50\nmax_batch =\n", "model = resnet-50\nMAX_BATCH = 3\n",
        "model = resnet-50\nmax_batch = 1 # trailing comment\n"}) {
    inputs.emplace_back(text);
  }
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a over outcomes
  for (const auto& input : inputs) {
    for (const char c : config_outcome(input) + '\0') {
      hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
  }
  EXPECT_EQ(inputs.size(), 2010u);
  EXPECT_EQ(hash, 0x10498019f654c485ULL) << std::hex << hash;
}

TEST(ConfigFile, HugeExponentsOnMicrosecondKeys) {
  // In-range zeros whose exponent overflows an int, before or after the
  // shift to seconds, on both *_us keys: each reads as exactly 0 and
  // round-trips.
  for (const char* zero : {"0e-2147483648", "0e99999999999", "0.000e-99999999999",
                           "0e-9223372036854775808"}) {
    const std::string text = std::string("model = vit-base\ningress_cache_lookup_us = ") + zero +
                             "\nhealth_probe_cost_us = " + zero + "\n";
    SCOPED_TRACE(text);
    serving::ServerConfig cfg;
    ASSERT_NO_THROW(cfg = serving::parse_server_config(text));
    EXPECT_EQ(cfg.ingress_cache.lookup_s, 0.0);
    EXPECT_EQ(cfg.balancer.health.probe_cost_s, 0.0);
    expect_exact_round_trip(cfg);
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in{text};
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& line : lines) text += line + "\n";
  return text;
}

TEST(ConfigFile, MutatedTextDecodesOrErrors) {
  // Formatted configs with edge values swapped in, bytes flipped, inserted
  // or deleted, and lines duplicated or dropped. Each input either fails
  // with a "server config" std::invalid_argument / std::out_of_range, or
  // parses to a config whose format -> parse -> format is a fixed point.
  serving::ServerConfig tuned;
  tuned.model = models::tiny_vit();
  tuned.backend = models::Backend::kPyTorch;
  tuned.preproc = serving::PreprocDevice::kCpu;
  tuned.mode = serving::PipelineMode::kPreprocessOnly;
  tuned.ingress = serving::IngressFormat::kRawTensor;
  tuned.ingress_cache = {.enabled = true, .tensor_budget_bytes = 4LL << 20, .lookup_s = 1e-6 / 3};
  tuned.max_queue_delay = 1'500;
  tuned.retry.enabled = true;
  tuned.retry.budget_refill_per_success = 0.1 + 0.2;
  tuned.balancer.policy = serving::BalancerPolicy::kLatencyWeighted;
  tuned.balancer.health.probe_cost_s = 0.1 + 0.2;
  tuned.balancer.hedge.deadline = sim::milliseconds(35);
  serving::ServerConfig plain;
  plain.model = models::vit_base();
  const std::string bases[] = {serving::format_server_config(plain),
                               serving::format_server_config(tuned)};

  std::vector<std::string> tokens = kEdgeTokens;
  tokens.insert(tokens.end(), {"1e99999999999", "0e99999999999", "0e-2147483648",
                               std::string(200, '9'), std::string(199, '0') + "1",
                               "1" + std::string(199, '0') + "e-199",
                               "0." + std::string(199, '0') + "5"});

  std::mt19937_64 rng{0x5eedc0f1};
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  const auto mutate = [&](std::string text) {
    const std::size_t pos = pick(text.size());
    auto lines = split_lines(text);
    const auto at = lines.begin() + static_cast<std::ptrdiff_t>(pick(lines.size()));
    switch (pick(6)) {
      case 0:
        *at = at->substr(0, at->find('=') + 1) + " " + tokens[pick(tokens.size())];
        return join_lines(lines);
      case 1: lines.insert(at, std::string(*at)); return join_lines(lines);
      case 2: lines.erase(at); return join_lines(lines);
      case 3: text[pos] = static_cast<char>(text[pos] ^ (1 << pick(8))); return text;
      case 4: text.insert(pos, 1, static_cast<char>(pick(256))); return text;
      default: text.erase(pos, 1); return text;
    }
  };
  const auto server_config_error = [](const std::exception& e) {
    return std::string_view(e.what()).starts_with("server config");
  };

  int decoded = 0;
  int rejected = 0;
  for (int i = 0; i < 1000; ++i) {
    std::string text = bases[pick(2)];
    for (std::size_t edits = 1 + pick(3); edits > 0; --edits) text = mutate(text);
    std::string formatted;
    try {
      formatted = serving::format_server_config(serving::parse_server_config(text));
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(server_config_error(e)) << e.what() << "\n" << text;
      ++rejected;
      continue;
    } catch (const std::out_of_range& e) {
      EXPECT_TRUE(server_config_error(e)) << e.what() << "\n" << text;
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unexpected exception: " << e.what() << "\n" << text;
      continue;
    }
    try {
      EXPECT_EQ(serving::format_server_config(serving::parse_server_config(formatted)),
                formatted)
          << text;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "formatted text does not parse back: " << e.what() << "\n" << formatted;
    }
    ++decoded;
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(decoded, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace serve

// --- Instance groups -------------------------------------------------------------

namespace serve {
namespace {

TEST(InferenceServer, ExtraInstancesOverlapStagingWithCompute) {
  // On the CPU-preprocessing path the ensemble-hop staging serializes with
  // compute inside one instance; a second instance hides it behind the
  // previous batch's kernel (CUDA-streams overlap).
  core::ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.server.preproc = serving::PreprocDevice::kCpu;
  spec.server.audit = true;  // instance groups contend on the stall token
  spec.concurrency = 256;
  spec.warmup = sim::seconds(1.0);
  spec.measure = sim::seconds(5.0);
  spec.server.instance_count = 1;
  const auto one = core::run_experiment(spec);
  spec.server.instance_count = 2;
  const auto two = core::run_experiment(spec);
  EXPECT_GT(two.throughput_rps, one.throughput_rps * 1.05);
  EXPECT_EQ(one.audit_violations, 0u);
  EXPECT_EQ(two.audit_violations, 0u);
}

TEST(InferenceServer, InvalidInstanceCountThrows) {
  sim::Simulator sim;
  hw::Platform platform{sim, {}};
  serving::ServerConfig cfg;
  cfg.model = models::vit_base();
  cfg.instance_count = 0;
  EXPECT_THROW((serving::InferenceServer{platform, cfg}), std::invalid_argument);
}

TEST(ConfigFile, InstanceCountRoundTrip) {
  const auto cfg =
      serving::parse_server_config("model = vit-base\ninstance_count = 3\n");
  EXPECT_EQ(cfg.instance_count, 3);
  const auto round = serving::parse_server_config(serving::format_server_config(cfg));
  EXPECT_EQ(round.instance_count, 3);
}

TEST(ConfigFile, AuditKeyRoundTrip) {
  EXPECT_FALSE(serving::parse_server_config("model = vit-base\n").audit);
  const auto cfg = serving::parse_server_config("model = vit-base\naudit = true\n");
  EXPECT_TRUE(cfg.audit);
  const auto round = serving::parse_server_config(serving::format_server_config(cfg));
  EXPECT_TRUE(round.audit);
}

}  // namespace
}  // namespace serve

// --- Cross-configuration property sweep -------------------------------------------

namespace serve {
namespace {

// (preproc device, pipeline mode, concurrency, image class)
using ServingGridParam = std::tuple<serving::PreprocDevice, serving::PipelineMode, int, int>;

class ServingPropertyTest : public ::testing::TestWithParam<ServingGridParam> {};

TEST_P(ServingPropertyTest, ConservationAndDeterminismHoldEverywhere) {
  const auto [dev, mode, concurrency, image_idx] = GetParam();
  const hw::ImageSpec images[] = {hw::kSmallImage, hw::kMediumImage, hw::kLargeImage};
  core::ExperimentSpec spec;
  spec.server.model = models::resnet50();
  spec.server.preproc = dev;
  spec.server.mode = mode;
  spec.server.audit = true;
  spec.concurrency = concurrency;
  spec.image = images[image_idx];
  spec.warmup = sim::seconds(0.5);
  spec.measure = sim::seconds(2.0);

  const auto a = core::run_experiment(spec);
  ASSERT_GT(a.completed, 0u);
  // Conservation: per-request stage times sum to end-to-end latency — both
  // in aggregate and per request (the lifecycle audit covers every request,
  // every hand-off, and the post-drain resource state).
  EXPECT_NEAR(a.breakdown.mean_total(), a.mean_latency_s, a.mean_latency_s * 1e-6);
  EXPECT_EQ(a.audit_violations, 0u);
  for (const auto& line : a.audit_report) ADD_FAILURE() << "audit: " << line;
  // Sanity: percentiles ordered, throughput positive, energy positive.
  EXPECT_LE(a.p50_latency_s, a.p99_latency_s * (1 + 1e-12));
  EXPECT_GT(a.throughput_rps, 0.0);
  EXPECT_GT(a.energy.total_joules(), 0.0);
  // Determinism: bit-identical on re-run.
  const auto b = core::run_experiment(spec);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ServingPropertyTest,
    ::testing::Combine(::testing::Values(serving::PreprocDevice::kCpu,
                                         serving::PreprocDevice::kGpu),
                       ::testing::Values(serving::PipelineMode::kEndToEnd,
                                         serving::PipelineMode::kPreprocessOnly,
                                         serving::PipelineMode::kInferenceOnly),
                       ::testing::Values(1, 64, 512), ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace serve
