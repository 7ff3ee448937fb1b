// TraceRecorder storage tests: the compact chunked store must export exactly
// what a plain event-vector recorder would (round-trip against a reference
// encoder on hostile sequences), fixed runs of every span producer (audited
// server, face and video pipelines, fleet, and every request route through the
// server) must hash to pinned values, and the store must state and bound its
// own memory cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/face_pipeline.h"
#include "core/fleet.h"
#include "core/video_pipeline.h"
#include "models/model_zoo.h"
#include "sim/fault_plan.h"
#include "sim/rng.h"
#include "sim/trace.h"
#include "trace/causal.h"
#include "workload/arrivals.h"
#include "workload/corpus.h"
#include "workload/popularity.h"

using namespace serve;

namespace {

/// The reference recorder's own owned-string args (every value a string).
using RefArgs = std::vector<std::pair<std::string, std::string>>;

std::string to_json(const sim::TraceRecorder& rec) {
  std::ostringstream os;
  rec.write_chrome_json(os);
  return os.str();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- Reference: every event verbatim in plain vectors -------------------------

/// Stores events verbatim and exports them the way the event-vector recorder
/// the chunked store replaced did. The store must match it byte for byte.
class ReferenceRecorder {
 public:
  void set_max_events(std::size_t cap) { max_events_ = cap; }

  void span(const std::string& track, const std::string& name, sim::Time begin, sim::Time end,
            RefArgs args) {
    if (admit()) spans_.push_back({track, name, begin, end, std::move(args)});
  }
  void counter(const std::string& track, double value, sim::Time t) {
    if (admit()) counters_.push_back({track, value, t});
  }
  void instant(const std::string& track, const std::string& name, sim::Time t, RefArgs args) {
    if (admit()) instants_.push_back({track, name, t, std::move(args)});
  }
  void clear() {
    spans_.clear();
    counters_.clear();
    instants_.clear();
    dropped_ = 0;
  }

  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }
  [[nodiscard]] std::size_t counter_count() const { return counters_.size(); }
  [[nodiscard]] std::size_t instant_count() const { return instants_.size(); }
  [[nodiscard]] std::uint64_t dropped_events() const { return dropped_; }

  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    std::map<std::string, int> tids;
    const auto tid_of = [&](const std::string& track) {
      return tids.emplace(track, static_cast<int>(tids.size()) + 1).first->second;
    };
    os << "{\"traceEvents\":[";
    bool first = true;
    const auto sep = [&] {
      if (!first) os << ",";
      first = false;
      os << "\n";
    };
    for (const auto& s : spans_) {
      sep();
      os << R"({"ph":"X","pid":1,"tid":)" << tid_of(s.track) << ",\"name\":" << quoted(s.name)
         << ",\"ts\":" << number(sim::to_microseconds(s.begin))
         << ",\"dur\":" << number(sim::to_microseconds(s.end - s.begin)) << args(s.args) << "}";
    }
    for (const auto& c : counters_) {
      sep();
      os << R"({"ph":"C","pid":1,"tid":)" << tid_of(c.track) << ",\"name\":" << quoted(c.track)
         << ",\"ts\":" << number(sim::to_microseconds(c.t))
         << ",\"args\":{\"value\":" << number(c.value) << "}}";
    }
    for (const auto& i : instants_) {
      sep();
      os << R"({"ph":"i","pid":1,"tid":)" << tid_of(i.track) << ",\"name\":" << quoted(i.name)
         << ",\"ts\":" << number(sim::to_microseconds(i.t)) << R"(,"s":"t")" << args(i.args)
         << "}";
    }
    for (const auto& [track, tid] : tids) {
      sep();
      os << R"({"ph":"M","pid":1,"tid":)" << tid
         << R"(,"name":"thread_name","args":{"name":)" << quoted(track) << "}}";
    }
    os << "\n]}\n";
    return os.str();
  }

 private:
  struct Event {
    std::string track;
    std::string name;
    sim::Time begin;
    sim::Time end;
    RefArgs args;
  };
  struct Sample {
    std::string track;
    double value;
    sim::Time t;
  };
  struct Marker {
    std::string track;
    std::string name;
    sim::Time t;
    RefArgs args;
  };

  bool admit() {
    if (spans_.size() + counters_.size() + instants_.size() >= max_events_) {
      ++dropped_;
      return false;
    }
    return true;
  }

  static std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
      const auto c = static_cast<unsigned char>(ch);
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        default:
          if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += ch;
          }
      }
    }
    return out + "\"";
  }

  static std::string number(double v) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
  }

  static std::string args(const RefArgs& kv) {
    if (kv.empty()) return "";
    std::string out = ",\"args\":{";
    for (std::size_t i = 0; i < kv.size(); ++i) {
      if (i > 0) out += ",";
      out += quoted(kv[i].first) + ":" + quoted(kv[i].second);
    }
    return out + "}";
  }

  std::size_t max_events_ = sim::TraceRecorder::kDefaultMaxEvents;
  std::uint64_t dropped_ = 0;
  std::vector<Event> spans_;
  std::vector<Sample> counters_;
  std::vector<Marker> instants_;
};

/// Drives the store and the reference with the same seeded event sequence.
class PairedRecorders {
 public:
  explicit PairedRecorders(std::uint64_t seed) : rng_(seed) {
    // 300 counter tracks, so ids run past one varint byte (>= 128).
    for (int i = 0; i < 300; ++i) tracks_.push_back("dev" + std::to_string(i) + ".busy");
    names_ = {"queue", "preprocess", "", "quote\" back\\slash", "ctl\x01\x1f\n\t", "req.12345",
              "batch x64", std::string(200, 'n')};
  }

  void set_max_events(std::size_t cap) {
    store.set_max_events(cap);
    ref.set_max_events(cap);
  }

  void clear() {
    store.clear();
    ref.clear();
  }

  /// Appends `n` random events of every kind.
  void record(int n) {
    for (int k = 0; k < n; ++k) {
      const auto pick = rng_.uniform_int(0, 9);
      if (pick < 6) {
        const std::string& track = tracks_[static_cast<std::size_t>(rng_.uniform_int(0, 299))];
        const double v = value();
        const sim::Time t = time();
        store.counter(store.intern(track), v, t);
        ref.counter(track, v, t);
      } else if (pick < 9) {
        const std::string& track = names_[static_cast<std::size_t>(rng_.uniform_int(0, 7))];
        const std::string& name = names_[static_cast<std::size_t>(rng_.uniform_int(0, 7))];
        const sim::Time begin = time() / 4;  // keeps end - begin in range
        const sim::Time end = begin + rng_.uniform_int(0, 3) * rng_.uniform_int(0, 5'000'000);
        store.span(track, name, begin, end, args());
        ref.span(track, name, begin, end, ref_args_);
      } else {
        const std::string& track = names_[static_cast<std::size_t>(rng_.uniform_int(0, 7))];
        const sim::Time t = time();
        store.instant(track, "marker " + std::to_string(k), t, args());
        ref.instant(track, "marker " + std::to_string(k), t, ref_args_);
      }
    }
  }

  void expect_equal() const {
    EXPECT_EQ(store.span_count(), ref.span_count());
    EXPECT_EQ(store.counter_count(), ref.counter_count());
    EXPECT_EQ(store.instant_count(), ref.instant_count());
    EXPECT_EQ(store.dropped_events(), ref.dropped_events());
    const std::string got = to_json(store);
    const std::string want = ref.json();
    EXPECT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want) << "first difference at byte "
                             << std::mismatch(got.begin(), got.end(), want.begin(), want.end())
                                        .first -
                                    got.begin();
  }

  sim::TraceRecorder store;
  ReferenceRecorder ref;

 private:
  /// Mostly small forward steps, with repeats, backward jumps and extremes.
  sim::Time time() {
    switch (rng_.uniform_int(0, 9)) {
      case 0: break;  // zero delta
      case 1: now_ -= rng_.uniform_int(1, 10'000'000); break;
      case 2: now_ = rng_.uniform_int(0, 1) == 0 ? INT64_MAX / 2 : -(INT64_MAX / 2); break;
      case 3: now_ += rng_.uniform_int(1, INT64_C(1) << 40); break;
      default: now_ += rng_.uniform_int(1, 200'000); break;
    }
    return now_;
  }

  double value() {
    static const double kSpecial[] = {0.0,
                                      -0.0,
                                      std::numeric_limits<double>::quiet_NaN(),
                                      -std::numeric_limits<double>::quiet_NaN(),
                                      std::numeric_limits<double>::infinity(),
                                      -std::numeric_limits<double>::infinity(),
                                      0.5,
                                      0x1p53,
                                      0x1p53 + 2.0,
                                      0x1p53 - 1.0,
                                      -1.0,
                                      std::numeric_limits<double>::denorm_min(),
                                      std::numeric_limits<double>::max(),
                                      1e300};
    const auto pick = rng_.uniform_int(0, 19);
    if (pick < 14) return kSpecial[pick];
    if (pick < 18) return static_cast<double>(rng_.uniform_int(0, 1'000'000));
    return rng_.uniform(-1e6, 1e6);
  }

  /// Random typed args for the store; ref_args_ holds the same draw as the
  /// reference records it (integers as their decimal strings).
  sim::TraceArgs args() {
    ref_args_.clear();
    store_args_.clear();
    std::vector<std::optional<std::uint64_t>> ints;
    const auto n = rng_.uniform_int(0, 3);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::string& key = names_[static_cast<std::size_t>(rng_.uniform_int(0, 7))];
      const auto kind = rng_.uniform_int(0, 30);
      if (kind == 0) {  // may straddle several chunks
        const auto len = static_cast<std::size_t>(rng_.uniform_int(0, 70'000));
        ref_args_.emplace_back(key, std::string(len, 'v'));
        ints.emplace_back();
      } else if (kind < 15) {
        ref_args_.emplace_back(key, std::to_string(rng_()));
        ints.emplace_back();
      } else {
        const std::uint64_t v =
            kind < 20 ? rng_() : static_cast<std::uint64_t>(rng_.uniform_int(0, 200));
        ref_args_.emplace_back(key, std::to_string(v));
        ints.emplace_back(v);
      }
    }
    for (std::size_t i = 0; i < ref_args_.size(); ++i) {
      const auto& [key, value] = ref_args_[i];
      store_args_.push_back(ints[i] ? sim::TraceArg{key, *ints[i]} : sim::TraceArg{key, value});
    }
    return {store_args_.data(), store_args_.size()};
  }

  sim::Rng rng_;
  std::vector<std::string> tracks_;
  std::vector<std::string> names_;
  RefArgs ref_args_;
  std::vector<sim::TraceArg> store_args_;
  sim::Time now_ = 0;
};

// --- Round trip against the reference ----------------------------------------

TEST(TraceStore, RandomSequencesExportLikeTheReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    PairedRecorders r{seed};
    r.record(40'000);  // several chunks per stream
    EXPECT_GT(r.store.memory_bytes(), 3 * sim::TraceRecorder::kChunkBytes);
    r.expect_equal();
    // clear() then re-recording: interned ids persist, time bases restart.
    r.clear();
    r.expect_equal();
    r.record(5'000);
    r.expect_equal();
  }
}

TEST(TraceStore, CounterRecordsStraddlingChunkBoundariesRoundTrip) {
  // Raw-valued samples with track 0 and a zero delta are 11 bytes each,
  // which does not divide the chunk size: records cross every boundary at
  // a different offset.
  sim::TraceRecorder store;
  ReferenceRecorder ref;
  const sim::TrackId id = store.intern("gpu0.compute");
  for (int i = 0; i < 30'000; ++i) {
    const double v = i % 7 == 0 ? 0.5 : static_cast<double>(i);
    store.counter(id, v, 1000);
    ref.counter("gpu0.compute", v, 1000);
  }
  EXPECT_EQ(to_json(store), ref.json());
}

TEST(TraceStore, IntegerCountersWriteTheBytesOfTheirDoubles) {
  // Resources record occupancy through the integer overload; it must store
  // exactly what the double overload stores for the converted value.
  sim::TraceRecorder by_int, by_double;
  const sim::TrackId a = by_int.intern("cpu.cores");
  const sim::TrackId b = by_double.intern("cpu.cores");
  const std::uint64_t values[] = {0, 1, 7, 300, std::uint64_t{1} << 40,
                                  (std::uint64_t{1} << 53) - 1, std::uint64_t{1} << 53,
                                  (std::uint64_t{1} << 53) + 1, ~std::uint64_t{0}};
  sim::Time t = 0;
  for (const std::uint64_t v : values) {
    by_int.counter(a, v, t);
    by_double.counter(b, static_cast<double>(v), t);
    t += 1000;
  }
  EXPECT_EQ(by_int.counter_count(), std::size(values));
  EXPECT_EQ(to_json(by_int), to_json(by_double));
}

TEST(TraceStore, EventCapDropsTheSameEventsAsTheReference) {
  PairedRecorders r{9};
  r.set_max_events(1'000);
  r.record(3'000);
  EXPECT_EQ(r.store.event_count(), 1'000u);
  EXPECT_EQ(r.store.dropped_events(), 2'000u);
  r.expect_equal();
  r.clear();
  r.record(500);
  r.expect_equal();
}

// --- Golden export and self-cost ----------------------------------------------

/// A short audited run with a 1% hash-sampled causal tracer, a PCIe
/// degradation and a staging-memory shrink: spans with causal args, device
/// counters, fault spans and instants all land in one export.
std::string audited_run_export() {
  core::ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.server.audit = true;
  spec.server.trace_sampler.mode = trace::SampleMode::kHash;
  spec.server.trace_sampler.rate = 0.01;
  spec.concurrency = 64;
  spec.warmup = sim::seconds(0.2);
  spec.measure = sim::seconds(1.0);
  spec.seed = 7;
  sim::FaultPlan faults;
  faults.pcie_degradation(sim::seconds(0.4), sim::seconds(0.6), 3.0);
  faults.gpu_memory_shrink(0, sim::seconds(0.7), sim::seconds(0.9), 0.25);
  spec.faults = &faults;
  sim::TraceRecorder rec;
  trace::CausalTracer tracer{&rec};
  spec.trace = &rec;
  spec.tracer = &tracer;
  (void)core::run_experiment(spec);
  return to_json(rec);
}

// The hash was taken from the export of the event-vector recorder this store
// replaced; a change to it means the export is no longer byte-identical.
TEST(TraceStore, AuditedRunExportMatchesGoldenHash) {
  const std::string json = audited_run_export();
  EXPECT_EQ(json.size(), 1549629u);
  EXPECT_EQ(fnv1a(json), 0xf12dc5b715cf3634ULL);
}

/// Every frame traced through `broker`: detection spans, broker
/// publish/deliver spans across the hop (none when fused), frame roots with
/// "run"/"faces" args and identification spans with "face" args.
std::string face_pipeline_export(core::BrokerKind broker = core::BrokerKind::kKafka) {
  sim::TraceRecorder rec;
  trace::CausalTracer tracer{&rec};
  core::FacePipelineSpec spec;
  spec.broker = broker;
  spec.stochastic_faces = true;
  spec.warmup = sim::seconds(0.2);
  spec.measure = sim::seconds(1.0);
  spec.tracer = &tracer;
  spec.trace_sampler.rate = 1.0;
  spec.trace_label = "face";
  (void)core::run_face_pipeline(spec);
  return to_json(rec);
}

/// Every clip traced through `decode`: ingest, decode (plus the PCIe
/// transfer for NVDEC) and per-frame classification spans with
/// "op"/"frame"/"blame" args under clip roots.
std::string video_pipeline_export(core::VideoDecodeDevice decode = core::VideoDecodeDevice::kCpu,
                                  core::SamplingMode sampling = core::SamplingMode::kKeyframeSeek) {
  sim::TraceRecorder rec;
  trace::CausalTracer tracer{&rec};
  core::VideoPipelineSpec spec;
  spec.decode = decode;
  spec.sampling = sampling;
  spec.warmup = sim::seconds(0.2);
  spec.measure = sim::seconds(1.0);
  spec.tracer = &tracer;
  spec.trace_sampler.rate = 1.0;
  spec.trace_label = "video";
  (void)core::run_video_pipeline(spec);
  return to_json(rec);
}

/// An audited two-node p2c fleet with health checks and hedging through a
/// node crash: fleet-request roots, hedge-win/hedge-loss spans on
/// "fleet.balancer", probe-fail spans on "fleet.probes", ejection and rejoin
/// instants on "fleet.health", per-node request spans and fault markers.
std::string fleet_export() {
  sim::TraceRecorder rec;
  trace::CausalTracer tracer{&rec};
  core::FleetSpec spec;
  spec.server.model = models::vit_base();
  spec.server.preproc = serving::PreprocDevice::kGpu;
  spec.server.balancer.policy = core::BalancerPolicy::kPowerOfTwo;
  spec.server.balancer.health.enabled = true;
  spec.server.balancer.hedge.enabled = true;
  spec.server.balancer.hedge.deadline = sim::milliseconds(20);
  spec.server.trace_sampler.rate = 0.25;
  spec.gpus_per_node = {1, 1};
  spec.concurrency = 64;
  spec.warmup = sim::seconds(0.2);
  spec.measure = sim::seconds(1.5);
  spec.audit = true;
  sim::FaultPlan faults;
  faults.node_crash(1, sim::seconds(0.5), sim::seconds(1.2));
  spec.faults = &faults;
  spec.trace = &rec;
  spec.tracer = &tracer;
  (void)core::run_fleet(spec);
  return to_json(rec);
}

// Pinned from the export of the string-argument span API; a change means a
// span producer no longer records the same events.
TEST(TraceStore, FacePipelineExportMatchesGoldenHash) {
  const std::string json = face_pipeline_export();
  EXPECT_NE(json.find(R"("name":"kafka.broker")"), std::string::npos);
  EXPECT_NE(json.find(R"("faces":)"), std::string::npos);
  EXPECT_EQ(json.size(), 216744u);
  EXPECT_EQ(fnv1a(json), 0x48e242c4d095e265ULL);
}

TEST(TraceStore, RedisFacePipelineExportMatchesGoldenHash) {
  const std::string json = face_pipeline_export(core::BrokerKind::kRedis);
  EXPECT_NE(json.find(R"("name":"redis.broker")"), std::string::npos);
  EXPECT_NE(json.find(R"("faces":)"), std::string::npos);
  EXPECT_EQ(json.size(), 209024u);
  EXPECT_EQ(fnv1a(json), 0x9420ea16c556de19ULL);
}

TEST(TraceStore, FusedFacePipelineExportMatchesGoldenHash) {
  const std::string json = face_pipeline_export(core::BrokerKind::kFused);
  EXPECT_EQ(json.find(R"(.broker")"), std::string::npos);
  EXPECT_NE(json.find(R"("model":"identification")"), std::string::npos);
  EXPECT_EQ(json.size(), 87112u);
  EXPECT_EQ(fnv1a(json), 0x17f95d6955ef1fe6ULL);
}

TEST(TraceStore, VideoPipelineExportMatchesGoldenHash) {
  const std::string json = video_pipeline_export();
  EXPECT_NE(json.find(R"("frame":)"), std::string::npos);
  EXPECT_EQ(json.size(), 66533u);
  EXPECT_EQ(fnv1a(json), 0xbd39194e86975f1dULL);
}

TEST(TraceStore, NvdecVideoPipelineExportMatchesGoldenHash) {
  const std::string json = video_pipeline_export(core::VideoDecodeDevice::kNvdec);
  EXPECT_NE(json.find(R"("op":"nvdec-decode")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"transfer")"), std::string::npos);
  EXPECT_EQ(json.size(), 304140u);
  EXPECT_EQ(fnv1a(json), 0xe2fea541f01ce206ULL);
}

TEST(TraceStore, FleetExportMatchesGoldenHash) {
  const std::string json = fleet_export();
  EXPECT_NE(json.find(R"("name":"hedge-)"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"probe-fail node1")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"node1 ejected")"), std::string::npos);
  EXPECT_EQ(json.size(), 1313644u);
  EXPECT_EQ(fnv1a(json), 0x052a666e1aaf9f28ULL);
}

// --- Request-route matrix -----------------------------------------------------

/// One route through InferenceServer: a short fully traced audited run whose
/// Chrome export pins every charge, blame and transfer of that route.
struct RouteCase {
  const char* name;
  void (*configure)(core::ExperimentSpec&, sim::FaultPlan&);
  /// Proves the run took the route it is named after.
  bool (*covers)(const core::ExperimentResult&);
  std::size_t bytes;
  std::uint64_t hash;
  /// Open-loop Poisson offered load; 0 runs the closed-loop clients.
  double poisson_rps = 0.0;
};

void PrintTo(const RouteCase& c, std::ostream* os) { *os << c.name; }

template <serving::PreprocDevice D, serving::PipelineMode M, serving::IngressFormat F>
void plain_route(core::ExperimentSpec& spec, sim::FaultPlan&) {
  spec.server.preproc = D;
  spec.server.mode = M;
  spec.server.ingress = F;
}

template <serving::PreprocDevice D>
void zipf_cache(core::ExperimentSpec& spec, sim::FaultPlan&) {
  // A tensor level of a few entries over a large image level: popular
  // payloads hit as tensors, the rest fall back to image-level hits.
  constexpr int kDistinct = 64;
  spec.server.preproc = D;
  spec.server.ingress_cache.enabled = true;
  spec.server.ingress_cache.image_budget_bytes = 64LL << 20;
  spec.server.ingress_cache.tensor_budget_bytes = 4LL << 20;
  spec.image_source =
      workload::popular_corpus_source(workload::make_spec_corpus(hw::kMediumImage, kDistinct),
                                      workload::PopularityModel::zipf(kDistinct, 1.1));
}

void gpu_failure_window(core::ExperimentSpec&, sim::FaultPlan& faults) {
  faults.gpu_failure(0, sim::seconds(0.15), sim::seconds(0.25));
}

void broker_outage(core::ExperimentSpec& spec, sim::FaultPlan& faults) {
  spec.server.broker_publish.publish_results = true;
  faults.broker_outage(sim::seconds(0.15), sim::seconds(0.2));
}

bool completes(const core::ExperimentResult& r) { return r.completed > 0; }

constexpr auto kGpu = serving::PreprocDevice::kGpu;
constexpr auto kCpu = serving::PreprocDevice::kCpu;
constexpr auto kE2E = serving::PipelineMode::kEndToEnd;
constexpr auto kPre = serving::PipelineMode::kPreprocessOnly;
constexpr auto kInf = serving::PipelineMode::kInferenceOnly;
constexpr auto kJpeg = serving::IngressFormat::kCompressedImage;
constexpr auto kTensor = serving::IngressFormat::kRawTensor;

bool has_both_hit_levels(const core::ExperimentResult& r) {
  return r.cache_tensor_hits > 0 && r.cache_image_hits > 0;
}

const RouteCase kRouteCases[] = {
    {"gpu_e2e_jpeg", plain_route<kGpu, kE2E, kJpeg>, completes,
     2816246u, 0x1048894ab0c8eaf5ULL},
    {"gpu_e2e_tensor", plain_route<kGpu, kE2E, kTensor>, completes,
     4213070u, 0x3ec28d93f4ffafd1ULL},
    {"gpu_preproc_only_jpeg", plain_route<kGpu, kPre, kJpeg>, completes,
     2242715u, 0xdc04a04fe3d0e4acULL},
    {"gpu_preproc_only_tensor", plain_route<kGpu, kPre, kTensor>, completes,
     15385517u, 0x9bd159b7bd487c0fULL},
    {"cpu_e2e_jpeg", plain_route<kCpu, kE2E, kJpeg>, completes,
     1369756u, 0x22af195b7b5ee15dULL},
    {"cpu_e2e_tensor", plain_route<kCpu, kE2E, kTensor>, completes,
     2382924u, 0x18ca4288ee924d77ULL},
    {"cpu_preproc_only_jpeg", plain_route<kCpu, kPre, kJpeg>, completes,
     1910559u, 0x77de67d8b2e412e5ULL},
    {"cpu_preproc_only_tensor", plain_route<kCpu, kPre, kTensor>, completes,
     15385352u, 0xd56f7cc7a455ffb5ULL},
    // Inference-only ignores the preprocessing device: both runs are the same.
    {"gpu_inference_only", plain_route<kGpu, kInf, kJpeg>, completes,
     4212903u, 0x4f486a311e0ce4a0ULL},
    {"cpu_inference_only", plain_route<kCpu, kInf, kJpeg>, completes,
     4212903u, 0x4f486a311e0ce4a0ULL},
    {"gpu_zipf_cache", zipf_cache<kGpu>, has_both_hit_levels,
     3677538u, 0xfd18e4c23318e598ULL},
    {"cpu_zipf_cache", zipf_cache<kCpu>, has_both_hit_levels,
     2430744u, 0xc43740782d6100cdULL},
    {"gpu_failure_degrade",
     [](core::ExperimentSpec& spec, sim::FaultPlan& faults) {
       spec.server.degrade.enabled = true;
       gpu_failure_window(spec, faults);
     },
     [](const core::ExperimentResult& r) { return r.degraded > 0; },
     2080845u, 0x131fd4f1bb80e368ULL},
    {"gpu_failure_no_policy", gpu_failure_window,
     [](const core::ExperimentResult& r) { return r.failed > 0; },
     6134471u, 0xb52732cb2556982fULL},
    {"staging_shrink_reload",
     [](core::ExperimentSpec&, sim::FaultPlan& faults) {
       faults.gpu_memory_shrink(0, sim::seconds(0.15), sim::seconds(0.3), 0.001);
     },
     [](const core::ExperimentResult& r) { return r.gpu_evictions > 0; },
     2364655u, 0x335c52d7b3109dacULL},
    {"corrupt_payloads",
     [](core::ExperimentSpec& spec, sim::FaultPlan& faults) {
       spec.server.validate_payloads = true;
       faults.set_payload_corruption(0.2, 11);
     },
     [](const core::ExperimentResult& r) { return r.failed > 0; },
     2939832u, 0x8fa717e5e96bd9bfULL},
    {"broker_outage_blind_repoll", broker_outage, completes,
     2581443u, 0x8407298bb47850beULL},
    {"broker_outage_retry",
     [](core::ExperimentSpec& spec, sim::FaultPlan& faults) {
       spec.server.broker_publish.retry_enabled = true;
       broker_outage(spec, faults);
     },
     [](const core::ExperimentResult& r) { return r.broker_failovers > 0; },
     2801918u, 0x88302fa5ac12e89eULL},
    {"shed_deadline_breaker",
     [](core::ExperimentSpec& spec, sim::FaultPlan&) {
       spec.server.shed_deadline = sim::milliseconds(15);
       spec.server.breaker.enabled = true;
       spec.server.breaker.queue_depth_open = 64;
       spec.server.breaker.open_duration = sim::milliseconds(20);
     },
     [](const core::ExperimentResult& r) { return r.dropped > 0 && r.rejected > 0; },
     2907351u, 0x065856406057db76ULL, 8000.0},
};

class RouteMatrix : public ::testing::TestWithParam<RouteCase> {};

// Pinned before the request route was folded into one decision; a change
// means some route no longer charges, blames or transfers the same way.
TEST_P(RouteMatrix, ExportMatchesGoldenHash) {
  const RouteCase& c = GetParam();
  core::ExperimentSpec spec;
  spec.server.model = models::resnet50();
  spec.server.audit = true;
  spec.server.trace_sampler.mode = trace::SampleMode::kHash;
  spec.server.trace_sampler.rate = 1.0;
  spec.server.trace_sampler.max_sampled = 1u << 20;
  spec.concurrency = 16;
  spec.warmup = sim::seconds(0.1);
  spec.measure = sim::seconds(0.3);
  spec.seed = 7;
  sim::FaultPlan faults;
  c.configure(spec, faults);
  spec.faults = &faults;
  sim::TraceRecorder rec;
  trace::CausalTracer tracer{&rec};
  spec.trace = &rec;
  spec.tracer = &tracer;
  const auto r = c.poisson_rps > 0.0
                     ? core::run_open_loop(spec, workload::poisson_arrivals(c.poisson_rps))
                     : core::run_experiment(spec);
  EXPECT_EQ(r.audit_violations, 0u) << (r.audit_report.empty() ? "" : r.audit_report.front());
  EXPECT_TRUE(c.covers(r));
  EXPECT_EQ(rec.dropped_events(), 0u);
  const std::string json = to_json(rec);
  EXPECT_EQ(json.size(), c.bytes);
  EXPECT_EQ(fnv1a(json), c.hash) << std::hex << "0x" << fnv1a(json);
}

INSTANTIATE_TEST_SUITE_P(Routes, RouteMatrix, ::testing::ValuesIn(kRouteCases),
                         [](const auto& tc) { return std::string(tc.param.name); });

TEST(TraceStore, CounterOnlyRunHoldsAtMostEightBytesPerSample) {
  core::ExperimentSpec spec;
  spec.server.model = models::vit_base();
  spec.concurrency = 64;
  spec.warmup = sim::seconds(0.2);
  spec.measure = sim::seconds(4.0);
  sim::TraceRecorder rec;
  spec.trace = &rec;
  (void)core::run_experiment(spec);
  EXPECT_EQ(rec.span_count(), 0u);
  ASSERT_GT(rec.counter_count(), 50'000u);
  EXPECT_LE(rec.memory_bytes(), 8 * rec.counter_count())
      << static_cast<double>(rec.memory_bytes()) / static_cast<double>(rec.counter_count())
      << " bytes per sample";
  // clear() frees the chunks; only the intern table stays.
  rec.clear();
  EXPECT_LT(rec.memory_bytes(), sim::TraceRecorder::kChunkBytes);
}

}  // namespace
