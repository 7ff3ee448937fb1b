// One fan-out request model for the multi-DNN pipelines (face
// identification, video classification).
//
// A job (a frame, a clip) passes stage 1 whole, splits into `units` stage-2
// units batched across jobs, and completes with its last unit. The Runner
// owns everything about that lifecycle that is not a stage body: the
// closed-loop clients and the intake channel, trace origination, the
// queue-wait and stage charges with their spans, completion accounting, and
// the warmup / measurement window / drain skeleton. A pipeline supplies only
// its stage processes.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>

#include "hw/calibration.h"
#include "metrics/breakdown.h"
#include "metrics/histogram.h"
#include "sim/channel.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "trace/causal.h"

namespace serve::core {

/// Fields every fan-out pipeline spec shares.
struct CascadeSpec {
  int concurrency = 8;  ///< closed-loop jobs in flight
  hw::Calibration calib = hw::default_calibration();
  sim::Time warmup = sim::seconds(2.0);
  sim::Time measure = sim::seconds(20.0);

  /// Optional causal tracer (recorder already attached): sampled jobs then
  /// originate traces whose spans cover every stage, so the cascade is one
  /// reconstructable tree per job.
  trace::CausalTracer* tracer = nullptr;
  trace::SamplerOptions trace_sampler{};  ///< which jobs get traced
  std::string trace_label{};              ///< "run" arg on job root spans
};

namespace cascade {

struct Job {
  Job(sim::Simulator& sim, std::uint64_t id_, int units_)
      : id(id_), units(units_), remaining(units_), arrival(sim.now()), done(sim) {}

  std::uint64_t id;
  int units;      ///< stage-2 units the job fans out to
  int remaining;  ///< units not yet completed
  sim::Time arrival;
  sim::Time handed_off = 0;  ///< stage 1 handed the units to a broker
  sim::Time delivered = 0;   ///< the broker delivered the last unit
  metrics::StageTimes stages{};
  trace::SpanContext ctx{};  ///< causal root (zero when untraced/unsampled)
  sim::Event done;
};

using JobPtr = std::shared_ptr<Job>;

/// What the measurement window saw.
struct Totals {
  std::uint64_t jobs = 0;
  double jobs_per_s = 0.0;
  double units_per_s = 0.0;
  double mean_latency_s = 0.0;  ///< job arrival -> last unit completed
  double p99_latency_s = 0.0;
  metrics::Breakdown breakdown{};  ///< per-job stage decomposition
};

class Runner {
 public:
  /// `noun` names the job ("frame" -> channel "frames", track "frame.<id>",
  /// root span "frame" with arg "frame_id"); a non-empty `units_arg` also
  /// puts the job's unit count on its root span.
  Runner(sim::Simulator& sim, const CascadeSpec& spec, std::string_view noun,
         std::string_view units_arg = {})
      : jobs_in(sim, std::numeric_limits<std::size_t>::max(), std::string(noun) + "s"),
        sim_(sim),
        spec_(spec),
        noun_(noun),
        id_arg_(std::string(noun) + "_id"),
        units_arg_(units_arg),
        sampler_(spec.trace_sampler) {}

  sim::Channel<JobPtr> jobs_in;  ///< stage 1 takes arriving jobs from here

  /// Records a span under `parent` on job `id`'s track. No-op without a
  /// tracer; the tracer itself no-ops unsampled contexts (ids still
  /// allocated, keeping id assignment scheduling-independent).
  void span(const trace::SpanContext& parent, std::uint64_t id, std::string_view name,
            sim::Time begin, sim::Time end, sim::TraceArgs args = {}) {
    if (spec_.tracer != nullptr && parent.valid()) {
      spec_.tracer->child_span(parent, sim::TraceName(noun_, ".", id), name, begin, end, args);
    }
  }

  /// Originates the job's causal trace at stage-1 pickup: the sampling fate
  /// comes from the job id alone and is carried by every downstream
  /// participant. The wait since arrival is covered by a `pickup_blame`
  /// queue span, so it does not surface as root self time.
  void begin_trace(Job& job, std::string_view pickup_blame) {
    if (spec_.tracer == nullptr) return;
    job.ctx = spec_.tracer->begin_trace(sampler_.sample(job.id));
    if (sim_.now() > job.arrival) {
      span(job.ctx, job.id, "queue", job.arrival, sim_.now(), {{"blame", pickup_blame}});
    }
  }

  /// Acquires one unit of `res`, charging the wait as queue time (with a
  /// `blame` span when it was nonzero).
  sim::Task<sim::ResourceToken> acquire(Job& job, sim::Resource& res, std::string_view blame) {
    const sim::Time t0 = sim_.now();
    sim::ResourceToken token = co_await res.acquire();
    job.stages[metrics::Stage::kQueue] += sim::to_seconds(sim_.now() - t0);
    if (sim_.now() > t0) span(job.ctx, job.id, "queue", t0, sim_.now(), {{"blame", blame}});
    co_return token;
  }

  /// Runs `secs` of stage `s` for the job, charging the elapsed virtual
  /// time and recording the stage's span with `arg` (when it has a key).
  sim::Task<> work(Job& job, metrics::Stage s, double secs, sim::TraceArg arg = {}) {
    const sim::Time t0 = sim_.now();
    co_await sim_.wait(sim::seconds(secs));
    job.stages[s] += sim::to_seconds(sim_.now() - t0);
    const sim::TraceArgs args{&arg, arg.key.empty() ? 0u : 1u};
    span(job.ctx, job.id, metrics::stage_name(s), t0, sim_.now(), args);
  }

  /// Completes the job with its last unit: charges the shared batch
  /// execution as inference and the broker hop (zero when none was
  /// crossed); whatever no named stage covers is scheduler queueing.
  void finish(Job& job, sim::Time batch_span) {
    job.stages[metrics::Stage::kInference] += sim::to_seconds(batch_span);
    job.stages[metrics::Stage::kBroker] += sim::to_seconds(job.delivered - job.handed_off);
    const sim::Time latency = sim_.now() - job.arrival;
    const double other = sim::to_seconds(latency) - job.stages.total();
    if (other > 0.0) job.stages[metrics::Stage::kQueue] += other;
    if (measuring_) {
      ++jobs_done_;
      units_done_ += static_cast<std::uint64_t>(job.units);
      latency_.add(sim::to_seconds(latency));
      breakdown_.add(job.stages);
    }
    if (spec_.tracer != nullptr && job.ctx.sampled) {
      sim::TraceArg args[3];
      std::size_t n = 0;
      if (!spec_.trace_label.empty()) args[n++] = {"run", spec_.trace_label};
      args[n++] = {id_arg_, job.id};
      if (!units_arg_.empty()) args[n++] = {units_arg_, static_cast<std::uint64_t>(job.units)};
      spec_.tracer->record(job.ctx, sim::TraceName(noun_, ".", job.id), noun_, job.arrival,
                           sim_.now(), {args, n});
    }
    job.done.set();
  }

  /// Drives a run whose stage processes are already spawned: starts
  /// `spec.concurrency` closed-loop clients (each job fans out to `units()`
  /// units), runs the warmup, measures one window, then drains: the clients
  /// stop, in-flight jobs finish, and closing the intake ends stage 1.
  template <typename UnitsFn>
  Totals run(UnitsFn units) {
    for (int i = 0; i < spec_.concurrency; ++i) sim_.spawn(client(units));
    sim_.run_until(spec_.warmup);
    measuring_ = true;
    const sim::Time window_start = sim_.now();
    sim_.run_until(spec_.warmup + spec_.measure);
    const double window = sim::to_seconds(sim_.now() - window_start);

    Totals t;
    t.jobs = jobs_done_;
    t.jobs_per_s = window > 0 ? static_cast<double>(jobs_done_) / window : 0.0;
    t.units_per_s = window > 0 ? static_cast<double>(units_done_) / window : 0.0;
    t.mean_latency_s = latency_.mean();
    t.p99_latency_s = latency_.p99();
    t.breakdown = breakdown_;

    stopping_ = true;
    sim_.run();
    jobs_in.close();
    sim_.run();
    return t;
  }

 private:
  /// Closed-loop job source: keeps one job outstanding.
  template <typename UnitsFn>
  sim::Process client(UnitsFn& units) {
    while (!stopping_) {
      auto job = std::make_shared<Job>(sim_, next_id_++, units());
      jobs_in.try_put(job);
      co_await job->done.wait();
    }
  }

  sim::Simulator& sim_;
  const CascadeSpec& spec_;
  std::string noun_;
  std::string id_arg_;
  std::string units_arg_;
  trace::TraceSampler sampler_;

  bool measuring_ = false;
  bool stopping_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t jobs_done_ = 0;
  std::uint64_t units_done_ = 0;
  metrics::Histogram latency_;
  metrics::Breakdown breakdown_;
};

}  // namespace cascade

}  // namespace serve::core
