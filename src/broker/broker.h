// Simulated message brokers for multi-DNN pipelines (paper Section 4.7).
//
// The paper compares three ways to connect a face-detection stage to a
// face-identification stage running at different rates:
//   - Apache Kafka: disk-backed log, durable per-message writes (prior work);
//   - Redis: in-memory broker on the same host;
//   - Fused: no broker, both stages in one process.
// SimBroker models the first two with a profile (publish service time on a
// bounded IO-thread pool + delivery latency); Fused is the absence of a
// broker in the pipeline code.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "hw/calibration.h"
#include "metrics/registry.h"
#include "sim/channel.h"
#include "sim/fault_plan.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "trace/causal.h"
#include "trace/span_context.h"

namespace serve::broker {

/// Cost profile of a broker deployment.
struct BrokerProfile {
  std::string name;
  double publish_service_s = 0.0;  ///< broker-side work per message (serialized
                                   ///< across io_threads; fsync for disk logs)
  double consume_latency_s = 0.0;  ///< poll/fetch delay charged to the consumer
  int io_threads = 1;
  bool disk_backed = false;
};

[[nodiscard]] inline BrokerProfile kafka_profile(const hw::BrokerCalib& c) {
  return {.name = "kafka",
          .publish_service_s = c.kafka_publish_service_s,
          .consume_latency_s = c.kafka_consume_latency_s,
          .io_threads = c.kafka_io_threads,
          .disk_backed = true};
}

[[nodiscard]] inline BrokerProfile redis_profile(const hw::BrokerCalib& c) {
  return {.name = "redis",
          .publish_service_s = c.redis_publish_service_s,
          .consume_latency_s = c.redis_consume_latency_s,
          .io_threads = c.redis_io_threads,
          .disk_backed = false};
}

/// Simulated publish/subscribe topic with broker-side costs. An optional
/// FaultPlan makes the broker fail publishes and stall deliveries inside
/// kBrokerOutage windows (deterministically, like every other fault).
///
/// Causal tracing: with a CausalTracer attached, `publish(msg, ctx)` records
/// a publish span (child of `ctx`) and stores its context alongside the
/// message; `consume_traced` records the matching delivery span (child of
/// the publish span) covering visible-to-consumed, and hands the delivery
/// context to the consumer so downstream spans keep the causal chain across
/// the broker hop. Both spans are named "broker" so critical-path stage
/// shares line up with metrics::Stage::kBroker.
template <typename T>
class SimBroker {
 public:
  /// A consumed message plus the delivery span's context (zero when the
  /// publisher attached no context or no tracer is installed).
  struct Delivery {
    T payload;
    trace::SpanContext ctx{};
  };

  SimBroker(sim::Simulator& sim, BrokerProfile profile, const sim::FaultPlan* faults = nullptr,
            metrics::Registry* registry = nullptr)
      : sim_(sim),
        profile_(std::move(profile)),
        faults_(faults),
        io_(sim, static_cast<std::size_t>(profile_.io_threads), profile_.name + ".io"),
        topic_(sim, std::numeric_limits<std::size_t>::max(), profile_.name + ".topic"),
        track_(profile_.name + ".broker") {
    if (registry != nullptr) {
      const metrics::Labels labels{{"broker", profile_.name}};
      published_m_ = registry->counter("broker_published_total", labels);
      consumed_m_ = registry->counter("broker_consumed_total", labels);
      failures_m_ = registry->counter("broker_publish_failures_total", labels);
      registry->gauge_fn("broker_topic_depth", labels,
                         [this] { return static_cast<double>(topic_.size()); });
      // Capacity-plane feed: the broker IO pool joins the hw_resource_*
      // namespace so the attributor sees it next to the device engines.
      const metrics::Labels rl{{"device", "broker"}, {"engine", "io"}};
      registry->gauge_fn("hw_resource_in_use", rl,
                         [this] { return static_cast<double>(io_.in_use()); });
      registry->counter_fn("hw_resource_busy_seconds_total", rl,
                           [this] { return io_.busy_seconds_total(); });
      registry->counter_fn("hw_resource_queue_seconds_total", rl,
                           [this] { return io_.queue_seconds_total(); });
      registry->gauge_fn("hw_resource_capacity", rl,
                         [this] { return static_cast<double>(io_.capacity()); });
    }
  }

  /// Publishes one message: occupies an IO thread for the service time, then
  /// the message becomes visible to consumers. Returns false (message not
  /// accepted) when a broker-outage fault window is active — the service
  /// time is still paid, as a real client pays for a timed-out round trip.
  /// Given a causal context, the publish span (IO queue + service time, and
  /// the rejection verdict during an outage) is recorded as a child of `ctx`,
  /// and its context travels with the message so the delivery span can
  /// parent under it at consume time.
  sim::Task<bool> publish(T msg, trace::SpanContext ctx = {}) {
    const sim::Time t0 = sim_.now();
    auto io = co_await io_.acquire();
    co_await sim_.wait(sim::seconds(profile_.publish_service_s));
    io.release();
    if (outage_now()) {
      ++publish_failures_;
      failures_m_.inc();
      hop(ctx, t0, {{"op", "publish"}, {"outcome", "rejected"}});
      co_return false;
    }
    ++published_;
    published_m_.inc();
    topic_.try_put(Envelope{std::move(msg), hop(ctx, t0, {{"op", "publish"}}), sim_.now()});
    co_return true;
  }

  /// Blocks until a message is available (or the topic closes), then charges
  /// the consumer-side delivery latency. Messages already in the topic when
  /// an outage begins are held back until the window ends.
  sim::Task<std::optional<T>> consume() {
    auto d = co_await consume_traced();
    co_return d ? std::optional<T>(std::move(d->payload)) : std::nullopt;
  }

  /// Like consume(), but also returns the delivery span's context. The
  /// delivery span covers visible-at through consumed (topic dwell + any
  /// outage hold + consumer fetch latency) — on the critical path it is the
  /// broker's whole contribution to end-to-end latency.
  sim::Task<std::optional<Delivery>> consume_traced() {
    auto env = co_await topic_.get();
    if (!env) co_return std::nullopt;
    const sim::Time until = outage_until();
    if (until > sim_.now()) co_await sim_.wait(until - sim_.now());
    co_await sim_.wait(sim::seconds(profile_.consume_latency_s));
    ++consumed_;
    consumed_m_.inc();
    co_return Delivery{std::move(env->payload),
                       hop(env->ctx, env->visible_at, {{"op", "deliver"}})};
  }

  /// Records publish/delivery spans through `tracer` (nullptr disables).
  void set_tracer(trace::CausalTracer* tracer) noexcept { tracer_ = tracer; }

  void close() { topic_.close(); }

  [[nodiscard]] const BrokerProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] std::uint64_t published() const noexcept { return published_; }
  [[nodiscard]] std::uint64_t consumed() const noexcept { return consumed_; }
  [[nodiscard]] std::uint64_t publish_failures() const noexcept { return publish_failures_; }
  [[nodiscard]] std::size_t depth() const noexcept { return topic_.size(); }
  [[nodiscard]] sim::Resource& io() noexcept { return io_; }

 private:
  /// What actually sits in the topic: payload + the publish span's context +
  /// the instant the message became consumer-visible.
  struct Envelope {
    T payload;
    trace::SpanContext ctx{};
    sim::Time visible_at = 0;
  };

  /// Records a "broker" span from `begin` to now under `parent` and returns
  /// its context; without a tracer or a parent context, returns `parent`.
  trace::SpanContext hop(const trace::SpanContext& parent, sim::Time begin, sim::TraceArgs args) {
    if (tracer_ == nullptr || !parent.valid()) return parent;
    return tracer_->child_span(parent, track_, "broker", begin, sim_.now(), args);
  }

  [[nodiscard]] bool outage_now() const noexcept {
    return faults_ != nullptr && faults_->active(sim::FaultKind::kBrokerOutage,
                                                 sim::FaultWindow::kAllTargets, sim_.now());
  }
  [[nodiscard]] sim::Time outage_until() const noexcept {
    return faults_ == nullptr ? sim_.now()
                              : faults_->active_until(sim::FaultKind::kBrokerOutage,
                                                      sim::FaultWindow::kAllTargets, sim_.now());
  }

  sim::Simulator& sim_;
  BrokerProfile profile_;
  const sim::FaultPlan* faults_ = nullptr;
  trace::CausalTracer* tracer_ = nullptr;
  sim::Resource io_;
  sim::Channel<Envelope> topic_;
  const std::string track_;  ///< "<name>.broker", the publish/delivery span track
  std::uint64_t published_ = 0;
  std::uint64_t consumed_ = 0;
  std::uint64_t publish_failures_ = 0;
  metrics::Counter published_m_;  ///< no-op handles without a registry
  metrics::Counter consumed_m_;
  metrics::Counter failures_m_;
};

}  // namespace serve::broker
