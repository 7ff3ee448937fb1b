#include "obs/capacity_plane.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace serve::obs {

namespace {

/// An interval is "idle" (no binding resource) when every candidate's busy
/// fraction is below this floor.
constexpr double kIdleFloor = 0.05;
/// Headroom estimates only use intervals where the binding resource's busy
/// fraction is inside [min, max]: below, λ/u extrapolates noise; above,
/// admission control has already clipped λ.
constexpr double kHeadroomMinUtil = 0.2;
constexpr double kHeadroomMaxUtil = 0.98;

}  // namespace

metrics::Stage stage_for_resource(std::string_view device, std::string_view engine) noexcept {
  using metrics::Stage;
  if (engine == "preproc_workers" || engine == "preproc") return Stage::kPreprocess;
  if (engine == "compute") return Stage::kInference;
  if (engine == "pcie" || engine == "copy_h2d" || engine == "copy_d2h") return Stage::kTransfer;
  if (device == "broker" || engine == "io") return Stage::kBroker;
  return Stage::kIngest;  // host cores & anything unknown: web-stack work
}

CapacityPlane::CapacityPlane(metrics::Registry& registry, Options opts)
    : registry_(registry), opts_(opts) {
  violations_m_ = registry_.counter("obs_capacity_little_violations_total");
  self_time_ = registry_.wall_clock_counter("obs_capacity_plane_self_seconds_total");
}

void CapacityPlane::attach(metrics::FlightRecorder& recorder) {
  if (&recorder.registry() != &registry_) {
    throw std::invalid_argument("CapacityPlane::attach: the recorder samples another registry");
  }
  period_s_ = sim::to_seconds(recorder.period());
  recorder.add_tick_listener(
      [this](sim::Time now, std::uint64_t tick) { observe(now, tick); });
}

std::size_t CapacityPlane::resource_slot(const std::string& device, const std::string& engine) {
  for (std::size_t i = 0; i < resources_.size(); ++i) {
    if (resources_[i].device == device && resources_[i].engine == engine) return i;
  }
  ResourceTimeline tl;
  tl.device = device;
  tl.engine = engine;
  // Back-fill intervals observed before this resource registered: absent
  // means "not yet modeled", which for attribution equals idle.
  tl.busy_frac.assign(binding_.size(), 0.0);
  tl.queue_mean.assign(binding_.size(), 0.0);
  resources_.push_back(std::move(tl));
  states_.emplace_back();
  return resources_.size() - 1;
}

void CapacityPlane::scan_new_instruments(std::size_t n) {
  for (std::size_t i = scanned_until_; i < n; ++i) {
    const auto info = registry_.info(i);
    if (info.wall_clock) continue;
    const std::string& name = info.name;
    const bool is_busy = name == "hw_resource_busy_seconds_total";
    const bool is_queue = name == "hw_resource_queue_seconds_total";
    const bool is_cap = name == "hw_resource_capacity";
    if (is_busy || is_queue || is_cap) {
      std::string device, engine;
      for (const auto& [k, v] : info.labels) {
        if (k == "device") device = v;
        else if (k == "engine") engine = v;
      }
      const std::size_t slot = resource_slot(device, engine);
      if (is_busy) states_[slot].busy_idx = i;
      else if (is_queue) states_[slot].queue_idx = i;
      else states_[slot].capacity_idx = i;
      continue;
    }
    if (info.labels.empty()) {
      if (name == "serving_requests_submitted_total") demand_idx_ = i;
      else if (name == "serving_in_flight_seconds_total") occ_idx_ = i;
      else if (name == "serving_latency_seconds_total") lat_idx_ = i;
    }
  }
  scanned_until_ = n;
}

void CapacityPlane::observe(sim::Time now, std::uint64_t /*tick*/) {
  const auto t0 = std::chrono::steady_clock::now();
  scan_new_instruments(registry_.instrument_count());

  if (!have_prev_tick_) {
    // Baseline tick: record current counter values, no interval yet.
    for (auto& st : states_) {
      if (st.busy_idx == kNoIndex) continue;
      st.prev_busy = registry_.current_value(st.busy_idx);
      st.prev_queue = st.queue_idx != kNoIndex ? registry_.current_value(st.queue_idx) : 0.0;
      st.have_prev = true;
    }
    if (demand_idx_ != kNoIndex) prev_demand_ = registry_.current_value(demand_idx_);
    if (occ_idx_ != kNoIndex) prev_occ_ = registry_.current_value(occ_idx_);
    if (lat_idx_ != kNoIndex) prev_lat_ = registry_.current_value(lat_idx_);
    prev_tick_time_ = now;
    have_prev_tick_ = true;
    const std::chrono::duration<double> dt0 = std::chrono::steady_clock::now() - t0;
    self_time_.inc(dt0.count());
    return;
  }

  const double dt_s = sim::to_seconds(now - prev_tick_time_);
  prev_tick_time_ = now;
  if (dt_s <= 0.0) {
    const std::chrono::duration<double> dt0 = std::chrono::steady_clock::now() - t0;
    self_time_.inc(dt0.count());
    return;
  }

  // Per-resource interval deltas. A resource whose instruments appeared this
  // tick establishes its baseline now and contributes 0 for this interval.
  std::size_t best = kIdle;
  double best_frac = kIdleFloor;
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    ResourceState& st = states_[r];
    double frac = 0.0, qmean = 0.0;
    if (st.busy_idx != kNoIndex) {
      const double busy = registry_.current_value(st.busy_idx);
      const double queue =
          st.queue_idx != kNoIndex ? registry_.current_value(st.queue_idx) : 0.0;
      const double cap = st.capacity_idx != kNoIndex
                             ? std::max(1.0, registry_.current_value(st.capacity_idx))
                             : 1.0;
      if (st.have_prev) {
        frac = std::clamp((busy - st.prev_busy) / (dt_s * cap), 0.0, 1.0);
        qmean = std::max(0.0, (queue - st.prev_queue) / dt_s);
      }
      st.prev_busy = busy;
      st.prev_queue = queue;
      st.have_prev = true;
      resources_[r].capacity = cap;
    }
    resources_[r].busy_frac.push_back(frac);
    resources_[r].queue_mean.push_back(qmean);
    // Argmax with strict > : ties (and everything under the floor) resolve
    // toward the earlier registration — deterministic by construction.
    if (frac > best_frac) {
      best_frac = frac;
      best = r;
    }
  }
  binding_.push_back(best);

  // Demand rate λ for the headroom estimator.
  double lambda = 0.0;
  if (demand_idx_ != kNoIndex) {
    const double d = registry_.current_value(demand_idx_);
    lambda = std::max(0.0, (d - prev_demand_) / dt_s);
    prev_demand_ = d;
  }
  lambda_.push_back(lambda);

  // Little's-law audit sample.
  LittleSample ls;
  if (occ_idx_ != kNoIndex && lat_idx_ != kNoIndex) {
    const double occ = registry_.current_value(occ_idx_);
    const double lat = registry_.current_value(lat_idx_);
    ls.l = (occ - prev_occ_) / dt_s;
    ls.lambda_w = (lat - prev_lat_) / dt_s;
    prev_occ_ = occ;
    prev_lat_ = lat;
    const double hi = std::max(ls.l, ls.lambda_w);
    if (hi >= opts_.little_min_occupancy) {
      ls.deviation = std::abs(ls.l - ls.lambda_w) / std::max(hi, 1e-12);
      ls.violated = ls.deviation > opts_.little_tolerance;
    }
  }
  if (ls.violated) {
    ++violations_;
    violations_m_.inc();
  }
  little_.push_back(ls);

  const std::chrono::duration<double> dt0 = std::chrono::steady_clock::now() - t0;
  self_time_.inc(dt0.count());
}

std::vector<BindingSegment> CapacityPlane::segments() const {
  std::vector<BindingSegment> out;
  for (std::size_t i = 0; i < binding_.size(); ++i) {
    if (!out.empty() && out.back().resource == binding_[i]) {
      out.back().end = i + 1;
    } else {
      out.push_back(BindingSegment{i, i + 1, binding_[i]});
    }
  }
  return out;
}

std::size_t CapacityPlane::dominant_resource() const {
  std::vector<std::size_t> counts(resources_.size(), 0);
  for (const std::size_t b : binding_) {
    if (b != kIdle) ++counts[b];
  }
  std::size_t best = kIdle, best_count = 0;
  for (std::size_t r = 0; r < counts.size(); ++r) {
    if (counts[r] > best_count) {
      best_count = counts[r];
      best = r;
    }
  }
  return best;
}

metrics::Stage CapacityPlane::dominant_stage() const {
  const std::size_t r = dominant_resource();
  if (r == kIdle) return metrics::Stage::kIngest;
  return stage_for_resource(resources_[r].device, resources_[r].engine);
}

std::vector<std::size_t> CapacityPlane::violation_intervals() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < little_.size(); ++i) {
    if (little_[i].violated) out.push_back(i);
  }
  return out;
}

double CapacityPlane::sustainable_rps() const {
  std::vector<double> estimates;
  for (std::size_t i = 0; i < binding_.size(); ++i) {
    const std::size_t b = binding_[i];
    if (b == kIdle || i >= lambda_.size()) continue;
    const double u = resources_[b].busy_frac[i];
    if (u < kHeadroomMinUtil || u > kHeadroomMaxUtil) continue;
    if (lambda_[i] <= 0.0) continue;
    estimates.push_back(lambda_[i] / u);
  }
  if (estimates.empty()) return 0.0;
  // Deterministic median (lower-of-two for even counts): robust against the
  // warmup and drain intervals that an average would let skew the knee.
  std::sort(estimates.begin(), estimates.end());
  return estimates[(estimates.size() - 1) / 2];
}

metrics::CapacitySnapshot CapacityPlane::snapshot() const {
  metrics::CapacitySnapshot snap;
  snap.period_s = period_s_;
  snap.resources.reserve(resources_.size());
  for (const auto& r : resources_) {
    metrics::CapacitySnapshot::Resource res;
    res.device = r.device;
    res.engine = r.engine;
    res.capacity = r.capacity;
    res.busy_frac = r.busy_frac;
    res.queue_mean = r.queue_mean;
    snap.resources.push_back(std::move(res));
  }
  for (const auto& seg : segments()) {
    metrics::CapacitySnapshot::Segment s;
    s.begin = seg.begin;
    s.end = seg.end;
    s.resource = seg.resource == kIdle ? "idle" : resources_[seg.resource].label();
    snap.segments.push_back(std::move(s));
  }
  snap.little_l.reserve(little_.size());
  snap.little_lambda_w.reserve(little_.size());
  for (const auto& ls : little_) {
    snap.little_l.push_back(ls.l);
    snap.little_lambda_w.push_back(ls.lambda_w);
  }
  for (const std::size_t v : violation_intervals()) snap.violation_intervals.push_back(v);
  snap.sustainable_rps = sustainable_rps();
  const std::size_t dom = dominant_resource();
  snap.binding = dom == kIdle ? "idle" : resources_[dom].label();
  snap.binding_stage = std::string(metrics::stage_name(dominant_stage()));
  return snap;
}

}  // namespace serve::obs
