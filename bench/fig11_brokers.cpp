// Reproduces paper Fig. 11: throughput and latency breakdown of the
// face-detection -> face-identification pipeline with Apache Kafka, Redis,
// and a Fused (no-broker) implementation, sweeping faces per frame.
//
// Paper findings: Redis gives 125% higher throughput (2.25x) and 67% lower
// zero-load latency than Kafka at 25 faces/frame; the broker accounts for
// 71% (Kafka) vs 6% (Redis) of latency; Fused wins below ~9 faces/frame,
// Redis wins at >=9.
#include "bench_util.h"
#include "core/experiment.h"
#include "core/face_pipeline.h"
#include "metrics/table.h"

using namespace serve;
using core::BrokerKind;
using core::FacePipelineSpec;

int main(int argc, char** argv) {
  bench::Reporter rep("Figure 11", "Multi-DNN face pipeline: Kafka vs Redis vs Fused");
  if (!rep.parse_cli(argc, argv, true)) return 2;
  // The face pipeline has no InferenceServer/auditor; traces attach directly.
  auto wire_trace = [&](FacePipelineSpec& spec, const std::string& label) {
    if (!rep.tracing()) return;
    spec.tracer = rep.tracer();
    spec.trace_label = label;
  };

  const int face_counts[] = {1, 2, 3, 5, 7, 9, 12, 15, 20, 25};
  metrics::Table tput_table({"faces/frame", "kafka_fps", "redis_fps", "fused_fps", "best"});
  double redis25 = 0, kafka25 = 0;
  int crossover = -1;  // first face count where redis >= fused
  for (int f : face_counts) {
    double fps[3];
    int i = 0;
    for (auto k : {BrokerKind::kKafka, BrokerKind::kRedis, BrokerKind::kFused}) {
      FacePipelineSpec spec;
      spec.broker = k;
      spec.faces_per_frame = f;
      spec.concurrency = 16;
      spec.measure = sim::seconds(12.0);
      wire_trace(spec, std::string(core::broker_kind_name(k)) + "/f=" + std::to_string(f));
      fps[i++] = core::run_face_pipeline(spec).frames_per_s;
    }
    const char* best = fps[2] >= fps[1] && fps[2] >= fps[0] ? "fused"
                       : (fps[1] >= fps[0] ? "redis" : "kafka");
    tput_table.add_row({static_cast<std::int64_t>(f), fps[0], fps[1], fps[2],
                        std::string(best)});
    if (f == 25) {
      kafka25 = fps[0];
      redis25 = fps[1];
    }
    if (crossover < 0 && fps[1] >= fps[2]) crossover = f;
  }
  rep.table("tput_table", tput_table);

  // Zero-load latency breakdown at 25 faces/frame.
  metrics::Table lat_table(
      {"broker", "zero_load_latency_ms", "broker_%", "inference_%", "preproc_%", "queue_%"});
  double lat[3], broker_share[3];
  int i = 0;
  for (auto k : {BrokerKind::kKafka, BrokerKind::kRedis, BrokerKind::kFused}) {
    FacePipelineSpec spec;
    spec.broker = k;
    spec.faces_per_frame = 25;
    spec.concurrency = 1;
    spec.measure = sim::seconds(30.0);
    wire_trace(spec, std::string(core::broker_kind_name(k)) + "/zero-load");
    const auto r = core::run_face_pipeline(spec);
    lat[i] = r.mean_latency_s;
    broker_share[i] = r.broker_share();
    lat_table.add_row({std::string(core::broker_kind_name(k)), r.mean_latency_s * 1e3,
                       100 * r.broker_share(),
                       100 * r.breakdown.share(metrics::Stage::kInference),
                       100 * r.breakdown.share(metrics::Stage::kPreprocess),
                       100 * r.breakdown.share(metrics::Stage::kQueue)});
    ++i;
  }
  rep.table("lat_table", lat_table);

  std::vector<bench::ShapeCheck> checks;
  const double tput_gain = redis25 / kafka25 - 1.0;
  checks.push_back({"Redis beats Kafka by ~125% throughput at 25 faces/frame (paper: 2.25x)",
                    tput_gain > 0.9 && tput_gain < 1.6,
                    "+" + std::to_string(100 * tput_gain) + " %"});
  const double lat_gain = 1.0 - lat[1] / lat[0];
  checks.push_back({"Redis cuts zero-load latency ~67% vs Kafka (paper)",
                    lat_gain > 0.55 && lat_gain < 0.8,
                    std::to_string(100 * lat_gain) + " % reduction"});
  checks.push_back({"Kafka consumes ~71% of total latency (paper)",
                    broker_share[0] > 0.58 && broker_share[0] < 0.84,
                    std::to_string(100 * broker_share[0]) + " %"});
  checks.push_back({"Redis consumes ~6% of total latency (paper)",
                    broker_share[1] > 0.015 && broker_share[1] < 0.12,
                    std::to_string(100 * broker_share[1]) + " %"});
  checks.push_back({"Fused is best at low face counts; Redis overtakes near 9 (paper)",
                    crossover >= 6 && crossover <= 12,
                    "crossover at " + std::to_string(crossover) + " faces/frame"});
  rep.checks(std::move(checks));
  return rep.finish();
}
