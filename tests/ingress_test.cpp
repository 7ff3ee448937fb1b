// Tests for the ingress tier: the content-addressed preprocess cache, the
// raw-tensor request path, and their end-to-end semantics (determinism,
// fault-driven budget shrink, stage-time conservation under audit).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.h"
#include "hw/image_spec.h"
#include "metrics/export.h"
#include "metrics/registry.h"
#include "models/model_zoo.h"
#include "serving/ingress_cache.h"
#include "sim/fault_plan.h"
#include "workload/corpus.h"
#include "workload/popularity.h"

namespace serve {
namespace {

using serving::CacheLevel;
using serving::IngressCache;

constexpr std::int64_t kTensor224 = 224LL * 224 * 3 * 4;  // 602,112 B

IngressCache::Options tensor_only_opts(std::int64_t tensor_budget) {
  // Image level disabled (zero budget) so LRU behavior at the tensor level
  // is directly observable through hit/miss outcomes.
  return {.image_budget_bytes = 0, .tensor_budget_bytes = tensor_budget, .lookup_s = 0.0};
}

TEST(IngressCache, MissThenInsertThenLeveledHits) {
  IngressCache cache{{.image_budget_bytes = 8 << 20, .tensor_budget_bytes = 8 << 20}};
  EXPECT_EQ(cache.lookup(7, 224), CacheLevel::kNone);
  EXPECT_EQ(cache.misses(), 1u);

  cache.insert(7, /*decoded_bytes=*/562500, /*target_side=*/224);
  EXPECT_EQ(cache.lookup(7, 224), CacheLevel::kTensor);  // full artifact
  // The tensor is keyed by (content, target side): a different model input
  // side only finds the decoded image.
  EXPECT_EQ(cache.lookup(7, 384), CacheLevel::kImage);
  EXPECT_EQ(cache.tensor_hits(), 1u);
  EXPECT_EQ(cache.image_hits(), 1u);
  EXPECT_EQ(cache.lookups(), 3u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 2.0 / 3.0);
  EXPECT_EQ(cache.tensor_resident_bytes(), kTensor224);
  EXPECT_EQ(cache.image_resident_bytes(), 562500);
}

TEST(IngressCache, EvictionIsLeastRecentlyUsedAndDeterministic) {
  IngressCache cache{tensor_only_opts(3 * kTensor224)};
  cache.insert(1, 100, 224);
  cache.insert(2, 100, 224);
  cache.insert(3, 100, 224);
  ASSERT_EQ(cache.tensor_entries(), 3u);
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_EQ(cache.lookup(1, 224), CacheLevel::kTensor);
  cache.insert(4, 100, 224);
  EXPECT_EQ(cache.tensor_evictions(), 1u);
  EXPECT_EQ(cache.lookup(2, 224), CacheLevel::kNone);  // evicted
  EXPECT_EQ(cache.lookup(1, 224), CacheLevel::kTensor);
  EXPECT_EQ(cache.lookup(3, 224), CacheLevel::kTensor);
  EXPECT_EQ(cache.lookup(4, 224), CacheLevel::kTensor);
  EXPECT_EQ(cache.tensor_resident_bytes(), 3 * kTensor224);
}

TEST(IngressCache, OversizedArtifactIsNotAdmitted) {
  IngressCache cache{tensor_only_opts(kTensor224 - 1)};
  cache.insert(9, 100, 224);
  EXPECT_EQ(cache.tensor_entries(), 0u);
  EXPECT_EQ(cache.tensor_resident_bytes(), 0);
  EXPECT_EQ(cache.lookup(9, 224), CacheLevel::kNone);
  EXPECT_EQ(cache.tensor_evictions(), 0u);  // refused, not admitted-then-evicted
}

TEST(IngressCache, ReinsertRefreshesInsteadOfDuplicating) {
  IngressCache cache{tensor_only_opts(2 * kTensor224)};
  cache.insert(1, 100, 224);
  cache.insert(2, 100, 224);
  cache.insert(1, 100, 224);  // refresh: 1 becomes most recently used
  cache.insert(3, 100, 224);  // evicts 2, not 1
  EXPECT_EQ(cache.lookup(2, 224), CacheLevel::kNone);
  EXPECT_EQ(cache.lookup(1, 224), CacheLevel::kTensor);
  EXPECT_EQ(cache.tensor_resident_bytes(), 2 * kTensor224);
}

TEST(IngressCache, BudgetScaleShrinksAndRestores) {
  IngressCache cache{tensor_only_opts(10 * kTensor224)};
  for (std::uint64_t h = 1; h <= 10; ++h) cache.insert(h, 100, 224);
  ASSERT_EQ(cache.tensor_entries(), 10u);

  cache.set_budget_scale(0.25);  // keeps floor(2.5) = 2 tensors
  EXPECT_EQ(cache.tensor_entries(), 2u);
  EXPECT_EQ(cache.tensor_evictions(), 8u);
  // LRU order: the two most recently inserted survive.
  EXPECT_EQ(cache.lookup(9, 224), CacheLevel::kTensor);
  EXPECT_EQ(cache.lookup(10, 224), CacheLevel::kTensor);

  cache.set_budget_scale(1.0);  // restores headroom; evicted entries stay gone
  EXPECT_EQ(cache.tensor_entries(), 2u);
  for (std::uint64_t h = 11; h <= 18; ++h) cache.insert(h, 100, 224);
  EXPECT_EQ(cache.tensor_entries(), 10u);
  EXPECT_EQ(cache.tensor_evictions(), 8u);

  EXPECT_THROW(cache.set_budget_scale(-0.1), std::invalid_argument);
}

TEST(IngressCache, RejectsBadOptions) {
  EXPECT_THROW(IngressCache({.image_budget_bytes = -1}), std::invalid_argument);
  EXPECT_THROW(IngressCache({.tensor_budget_bytes = -1}), std::invalid_argument);
  EXPECT_THROW(IngressCache({.lookup_s = -1e-6}), std::invalid_argument);
}

// --- content identity (cache keys never derive from geometry) ---------------

TEST(ContentHash, EqualSpecDifferentPixelsProduceDistinctKeys) {
  // Two payloads with byte-identical geometry (and even equal encoded size)
  // must never collide in the cache: the key is the payload, not the spec.
  const std::uint8_t a[] = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint8_t b[] = {1, 2, 3, 4, 5, 6, 7, 9};
  const auto ha = workload::content_hash_bytes(a, sizeof a);
  const auto hb = workload::content_hash_bytes(b, sizeof b);
  EXPECT_NE(ha, 0u);
  EXPECT_NE(hb, 0u);
  EXPECT_NE(ha, hb);

  workload::CorpusEntry ea{.spec = hw::kSmallImage, .jpeg = {}, .content_hash = ha};
  workload::CorpusEntry eb{.spec = hw::kSmallImage, .jpeg = {}, .content_hash = hb};
  ASSERT_EQ(ea.spec, eb.spec);

  IngressCache cache{{.image_budget_bytes = 8 << 20, .tensor_budget_bytes = 8 << 20}};
  cache.insert(ea.content_hash, ea.spec.decoded_bytes(), 224);
  EXPECT_EQ(cache.lookup(ea.content_hash, 224), CacheLevel::kTensor);
  EXPECT_EQ(cache.lookup(eb.content_hash, 224), CacheLevel::kNone);
}

TEST(ContentHash, RealCorpusEntriesCarryDistinctNonZeroHashes) {
  const auto corpus = workload::make_corpus(hw::kSmallImage, 3, 11);
  ASSERT_EQ(corpus.size(), 3u);
  for (const auto& e : corpus) EXPECT_NE(e.content_hash, 0u);
  EXPECT_NE(corpus[0].content_hash, corpus[1].content_hash);
  EXPECT_NE(corpus[1].content_hash, corpus[2].content_hash);
  // Stable: the same seed re-derives the same identities.
  const auto again = workload::make_corpus(hw::kSmallImage, 3, 11);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(corpus[i].content_hash, again[i].content_hash);
}

// --- end-to-end semantics ----------------------------------------------------

core::ExperimentSpec cached_spec(double skew, serving::PreprocDevice dev, hw::ImageSpec image) {
  constexpr int kDistinct = 128;
  core::ExperimentSpec spec;
  spec.server.model = models::tiny_vit();
  spec.server.preproc = dev;
  spec.server.audit = true;
  spec.server.ingress_cache.enabled = true;
  spec.server.ingress_cache.image_budget_bytes = 32 << 20;
  spec.server.ingress_cache.tensor_budget_bytes = 32 << 20;
  spec.image = image;
  spec.image_source =
      workload::popular_corpus_source(workload::make_spec_corpus(image, kDistinct),
                                      workload::PopularityModel::zipf(kDistinct, skew));
  spec.concurrency = 32;
  spec.warmup = sim::seconds(0.5);
  spec.measure = sim::seconds(1.5);
  return spec;
}

TEST(IngressE2E, CpuPathCacheHitsAreConservedUnderAudit) {
  const auto r = core::run_experiment(cached_spec(1.1, serving::PreprocDevice::kCpu,
                                                  hw::kMediumImage));
  EXPECT_EQ(r.audit_violations, 0u) << (r.audit_report.empty() ? "" : r.audit_report.front());
  EXPECT_GT(r.completed, 0u);
  EXPECT_GT(r.cache_tensor_hits, 0u);
  // Hits skip the work but keep the stage: the probe span is charged to
  // preprocess, so the breakdown still shows the stage for hit requests.
  EXPECT_GT(r.stage_share(metrics::Stage::kPreprocess), 0.0);
}

TEST(IngressE2E, GpuPathCacheHitsAreConservedUnderAudit) {
  const auto r = core::run_experiment(cached_spec(1.1, serving::PreprocDevice::kGpu,
                                                  hw::kMediumImage));
  EXPECT_EQ(r.audit_violations, 0u) << (r.audit_report.empty() ? "" : r.audit_report.front());
  EXPECT_GT(r.cache_tensor_hits + r.cache_image_hits, 0u);
}

TEST(IngressE2E, RawTensorIngressIsConservedOnBothPreprocDevices) {
  for (auto dev : {serving::PreprocDevice::kGpu, serving::PreprocDevice::kCpu}) {
    core::ExperimentSpec spec;
    spec.server.model = models::resnet50();
    spec.server.preproc = dev;
    spec.server.ingress = serving::IngressFormat::kRawTensor;
    spec.server.audit = true;
    spec.concurrency = 32;
    spec.warmup = sim::seconds(0.5);
    spec.measure = sim::seconds(1.5);
    const auto r = core::run_experiment(spec);
    EXPECT_EQ(r.audit_violations, 0u)
        << (r.audit_report.empty() ? "" : r.audit_report.front());
    EXPECT_GT(r.completed, 0u);
    // No server preprocessing at all on this path.
    EXPECT_DOUBLE_EQ(r.stage_share(metrics::Stage::kPreprocess), 0.0);
  }
}

TEST(IngressE2E, ClientTensorsSkipPayloadValidation) {
  // Inference-only clients ship the fp32 tensor whatever the ingress key
  // says, so corrupted-JPEG validation must not fail them.
  for (auto fmt : {serving::IngressFormat::kCompressedImage, serving::IngressFormat::kRawTensor}) {
    core::ExperimentSpec spec;
    spec.server.model = models::resnet50();
    spec.server.mode = serving::PipelineMode::kInferenceOnly;
    spec.server.ingress = fmt;
    spec.server.validate_payloads = true;
    spec.server.audit = true;
    sim::FaultPlan faults;
    faults.set_payload_corruption(0.2, 11);
    spec.faults = &faults;
    spec.concurrency = 32;
    spec.warmup = sim::seconds(0.2);
    spec.measure = sim::seconds(1.0);
    const auto r = core::run_experiment(spec);
    EXPECT_EQ(r.audit_violations, 0u) << (r.audit_report.empty() ? "" : r.audit_report.front());
    EXPECT_GT(r.completed, 0u);
    EXPECT_EQ(r.failed, 0u) << serving::ingress_format_name(fmt);
  }
}

std::string cache_run_fingerprint() {
  metrics::Registry reg;
  auto spec = cached_spec(1.1, serving::PreprocDevice::kCpu, hw::kMediumImage);
  spec.registry = &reg;
  const auto r = core::run_experiment(spec);
  metrics::TelemetryExport exp;
  exp.set_context("figure", "ingress-determinism");
  exp.capture_instruments(reg);
  std::ostringstream json, prom;
  exp.write_json(json);
  exp.write_prometheus(prom);
  return json.str() + "\n---\n" + prom.str() + "\n---\n" + std::to_string(r.cache_tensor_hits) +
         "/" + std::to_string(r.cache_image_hits) + "/" + std::to_string(r.cache_evictions);
}

TEST(IngressE2E, SameSeedRunsHaveByteIdenticalCountersAndExports) {
  EXPECT_EQ(cache_run_fingerprint(), cache_run_fingerprint());
}

TEST(IngressE2E, MemoryShrinkFaultEvictsCacheAndStaysConserved) {
  sim::FaultPlan faults;
  // Shrink lands inside the measurement window so the eviction storm is
  // visible in the window-scoped counters.
  faults.gpu_memory_shrink(sim::FaultWindow::kAllTargets, sim::seconds(0.8), sim::seconds(1.4),
                           /*keep_fraction=*/0.05);
  auto spec = cached_spec(1.1, serving::PreprocDevice::kCpu, hw::kMediumImage);
  spec.faults = &faults;
  const auto r = core::run_experiment(spec);
  EXPECT_EQ(r.audit_violations, 0u) << (r.audit_report.empty() ? "" : r.audit_report.front());
  EXPECT_GT(r.cache_evictions, 0u);
  EXPECT_GT(r.completed, 0u);
}

}  // namespace
}  // namespace serve
