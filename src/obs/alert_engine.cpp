#include "obs/alert_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "metrics/export.h"

namespace serve::obs {

namespace {

std::string flat_labels(const metrics::Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ';';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

}  // namespace

AlertEngine::AlertEngine(metrics::Registry& registry) : registry_(registry) {
  active_gauge_ = registry_.gauge("obs_alerts_active");
  self_time_ = registry_.wall_clock_counter("obs_alert_engine_self_seconds_total");
}

void AlertEngine::add_threshold(ThresholdRule rule) {
  const bool has_above = std::isfinite(rule.fire_above);
  const bool has_below = std::isfinite(rule.fire_below);
  if (has_above == has_below) {
    throw std::invalid_argument("ThresholdRule '" + rule.name +
                                "': set exactly one of fire_above / fire_below");
  }
  ThresholdState st;
  st.fired = registry_.counter("obs_alerts_fired_total", {{"alert", rule.name}});
  st.resolved = registry_.counter("obs_alerts_resolved_total", {{"alert", rule.name}});
  st.rule = std::move(rule);
  thresholds_.push_back(std::move(st));
}

void AlertEngine::add_burn_rate(BurnRateRule rule) {
  if (!(rule.target > 0.0) || !(rule.target < 1.0)) {
    throw std::invalid_argument("BurnRateRule '" + rule.name + "': target must be in (0, 1)");
  }
  if (rule.short_window_ticks <= 0 || rule.long_window_ticks < rule.short_window_ticks) {
    throw std::invalid_argument("BurnRateRule '" + rule.name +
                                "': require 0 < short_window_ticks <= long_window_ticks");
  }
  BurnState st;
  st.fired = registry_.counter("obs_alerts_fired_total", {{"alert", rule.name}});
  st.resolved = registry_.counter("obs_alerts_resolved_total", {{"alert", rule.name}});
  st.rule = std::move(rule);
  burns_.push_back(std::move(st));
}

void AlertEngine::add_stall(StallRule rule) {
  StallState st;
  st.fired = registry_.counter("obs_alerts_fired_total", {{"alert", rule.name}});
  st.resolved = registry_.counter("obs_alerts_resolved_total", {{"alert", rule.name}});
  st.rule = std::move(rule);
  stalls_.push_back(std::move(st));
}

void AlertEngine::add_littles_law(LittleLawRule rule) {
  if (!(rule.tolerance > 0.0)) {
    throw std::invalid_argument("LittleLawRule '" + rule.name + "': tolerance must be > 0");
  }
  LittleState st;
  st.fired = registry_.counter("obs_alerts_fired_total", {{"alert", rule.name}});
  st.resolved = registry_.counter("obs_alerts_resolved_total", {{"alert", rule.name}});
  st.deviation_ticks =
      registry_.counter("obs_little_law_deviation_ticks_total", {{"alert", rule.name}});
  st.rule = std::move(rule);
  littles_.push_back(std::move(st));
}

void AlertEngine::attach(metrics::FlightRecorder& recorder) {
  if (&recorder.registry() != &registry_) {
    throw std::invalid_argument("AlertEngine::attach: the recorder samples another registry");
  }
  recorder_ = &recorder;
  recorder.add_tick_listener(
      [this](sim::Time now, std::uint64_t tick) { evaluate(now, tick); });
}

void AlertEngine::set_triggered_sampler(trace::TraceSampler* sampler, int hold_ticks) {
  sampler_ = sampler;
  capture_hold_ticks_ = hold_ticks < 0 ? 0 : hold_ticks;
}

void AlertEngine::release_triggered_sampler() noexcept {
  if (sampler_ != nullptr && capture_on_) sampler_->set_forced(false);
  sampler_ = nullptr;
  capture_on_ = false;
}

void AlertEngine::scan_new_instruments(ThresholdState& st, std::size_t n) {
  for (std::size_t i = st.scanned_until; i < n; ++i) {
    const auto info = registry_.info(i);
    if (info.wall_clock || info.name != st.rule.instrument) continue;
    st.matched.push_back(i);
    st.per_state.emplace_back();
    st.prev_value.push_back(0.0);
    st.have_prev.push_back(false);
  }
  st.scanned_until = n;
}

void AlertEngine::scan_new_instruments(BurnState& st, std::size_t n) {
  for (std::size_t i = st.scanned_until; i < n; ++i) {
    const auto info = registry_.info(i);
    if (info.wall_clock || info.type != metrics::InstrumentType::kHistogram) continue;
    if (info.name != st.rule.histogram) continue;
    st.matched.push_back(i);
  }
  st.scanned_until = n;
}

int AlertEngine::step_state(AlertState& state, bool breach, bool clear_ok, int for_ticks,
                            int clear_for_ticks) {
  if (!state.firing) {
    if (breach) {
      if (++state.breach_ticks >= for_ticks) {
        state.firing = true;
        state.breach_ticks = 0;
        state.clear_ticks = 0;
        return +1;
      }
    } else {
      state.breach_ticks = 0;
    }
  } else {
    if (clear_ok) {
      if (++state.clear_ticks >= clear_for_ticks) {
        state.firing = false;
        state.breach_ticks = 0;
        state.clear_ticks = 0;
        return -1;
      }
    } else {
      state.clear_ticks = 0;
    }
  }
  return 0;
}

std::string AlertEngine::instance_name(const ThresholdRule& rule, std::size_t reg_index) const {
  const auto info = registry_.info(reg_index);
  const std::string flat = flat_labels(info.labels);
  if (flat.empty()) return rule.name;
  return rule.name + '{' + flat + '}';
}

std::string AlertEngine::top_contributors(const std::vector<std::size_t>& matched,
                                          std::size_t limit) const {
  std::vector<std::pair<double, std::size_t>> ranked;
  ranked.reserve(matched.size());
  for (const std::size_t i : matched) ranked.emplace_back(registry_.current_value(i), i);
  // Descending by value; registry index breaks ties so the order (and the
  // log bytes) stay deterministic.
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  if (ranked.size() > limit) ranked.resize(limit);
  std::string out = "top:";
  for (const auto& [v, i] : ranked) {
    const auto info = registry_.info(i);
    out += ' ';
    out += info.name;
    const std::string flat = flat_labels(info.labels);
    if (!flat.empty()) {
      out += '{';
      out += flat;
      out += '}';
    }
    out += '=';
    out += metrics::format_double(v);
  }
  return out;
}

void AlertEngine::transition(sim::Time now, const std::string& alert, bool firing, double value,
                             double threshold, std::string detail, metrics::Counter& fired,
                             metrics::Counter& resolved) {
  AlertEvent ev;
  ev.t = now;
  ev.alert = alert;
  ev.firing = firing;
  ev.value = value;
  ev.threshold = threshold;
  ev.detail = std::move(detail);
  if (firing) {
    ++active_;
    ++fired_total_;
    fired.inc();
  } else {
    if (active_ > 0) --active_;
    resolved.inc();
  }
  if (trace_ != nullptr) {
    trace_->instant("alerts", alert + (firing ? " firing" : " resolved"), now,
                    {{"value", metrics::format_double(value)},
                     {"threshold", metrics::format_double(threshold)},
                     {"detail", ev.detail}});
  }
  events_.push_back(std::move(ev));
}

void AlertEngine::evaluate_threshold(ThresholdState& st, sim::Time now, double dt_s,
                                     std::size_t n) {
  scan_new_instruments(st, n);
  const ThresholdRule& r = st.rule;
  const bool above = std::isfinite(r.fire_above);
  const double fire_level = above ? r.fire_above : r.fire_below;
  const double clear_level = above ? (std::isnan(r.clear_below) ? r.fire_above : r.clear_below)
                                   : (std::isnan(r.clear_above) ? r.fire_below : r.clear_above);

  // Per-instrument signal (value or rate); rate needs a previous sample.
  // Computed inline per index — this runs every recorder tick, so no
  // per-tick scratch allocations.
  const auto signal_at = [&](std::size_t k) -> std::pair<double, bool> {
    const double v = registry_.current_value(st.matched[k]);
    if (r.signal == ThresholdRule::Signal::kValue) return {v, true};
    std::pair<double, bool> out{0.0, false};
    if (st.have_prev[k] && dt_s > 0.0) out = {(v - st.prev_value[k]) / dt_s, true};
    st.prev_value[k] = v;
    st.have_prev[k] = true;
    return out;
  };

  const auto judge = [&](double v, bool valid) -> std::pair<bool, bool> {
    if (!valid) return {false, true};  // no signal: no breach, clears freely
    const bool breach = above ? v > fire_level : v < fire_level;
    const bool clear_ok = above ? v <= clear_level : v >= clear_level;
    return {breach, clear_ok};
  };

  if (r.agg == ThresholdRule::Agg::kPerInstrument) {
    for (std::size_t k = 0; k < st.matched.size(); ++k) {
      const auto [v, valid] = signal_at(k);
      const auto [breach, clear_ok] = judge(v, valid);
      const int step = step_state(st.per_state[k], breach, clear_ok, r.for_ticks,
                                  r.clear_for_ticks);
      if (step != 0) {
        transition(now, instance_name(r, st.matched[k]), step > 0, v, fire_level,
                   top_contributors({st.matched[k]}, 1), st.fired, st.resolved);
      }
    }
    return;
  }

  double agg = r.agg == ThresholdRule::Agg::kMax ? -std::numeric_limits<double>::infinity() : 0.0;
  bool any = false;
  for (std::size_t k = 0; k < st.matched.size(); ++k) {
    const auto [v, valid] = signal_at(k);
    if (!valid) continue;
    any = true;
    if (r.agg == ThresholdRule::Agg::kMax) {
      agg = std::max(agg, v);
    } else {
      agg += v;
    }
  }
  if (!any) agg = 0.0;
  const auto [breach, clear_ok] = judge(agg, any);
  const int step = step_state(st.agg_state, breach, clear_ok, r.for_ticks, r.clear_for_ticks);
  if (step != 0) {
    transition(now, r.name, step > 0, agg, fire_level, top_contributors(st.matched), st.fired,
               st.resolved);
  }
}

void AlertEngine::evaluate_burn(BurnState& st, sim::Time now, std::size_t n) {
  scan_new_instruments(st, n);
  const BurnRateRule& r = st.rule;

  // Cumulative (count, over-SLO count) across the matched histograms at this
  // tick; windows difference these cumulative samples, so a flight-recorder
  // ring wrap cannot perturb them — the engine owns its trailing window.
  BurnWindowSample cur;
  for (const std::size_t i : st.matched) {
    const auto [count, good] = registry_.histogram_count_below(i, r.slo_s);
    cur.count += count;
    cur.bad += static_cast<double>(count) - good;
  }
  st.window.push_back(cur);
  const std::size_t keep = static_cast<std::size_t>(r.long_window_ticks) + 1;
  while (st.window.size() > keep) st.window.pop_front();

  const auto burn_over = [&](int ticks) -> double {
    const std::size_t samples = st.window.size();
    if (samples < 2) return 0.0;
    const std::size_t back = std::min<std::size_t>(static_cast<std::size_t>(ticks), samples - 1);
    const BurnWindowSample& old = st.window[samples - 1 - back];
    const double dcount = static_cast<double>(cur.count - old.count);
    if (dcount <= 0.0) return 0.0;
    const double dbad = std::max(0.0, cur.bad - old.bad);
    return (dbad / dcount) / (1.0 - r.target);
  };

  const double burn_short = burn_over(r.short_window_ticks);
  const double burn_long = burn_over(r.long_window_ticks);
  const bool breach = burn_short >= r.burn_threshold && burn_long >= r.burn_threshold;
  const bool clear_ok = burn_short < r.burn_threshold;
  const int step = step_state(st.state, breach, clear_ok, /*for_ticks=*/1, r.clear_for_ticks);
  if (step != 0) {
    std::string detail = "burn_short=" + metrics::format_double(burn_short) +
                         " burn_long=" + metrics::format_double(burn_long) +
                         " slo_s=" + metrics::format_double(r.slo_s) + ' ' +
                         top_contributors(st.matched);
    transition(now, r.name, step > 0, burn_short, r.burn_threshold, std::move(detail), st.fired,
               st.resolved);
  }
}

void AlertEngine::scan_new_instruments(StallState& st, std::size_t n) {
  for (std::size_t i = st.scanned_until; i < n; ++i) {
    if (st.progress_idx != kNoIndex &&
        (st.armed_idx != kNoIndex || st.rule.armed_gauge.empty())) {
      break;  // both resolved; skip the info() walk for late registrations
    }
    const auto info = registry_.info(i);
    if (!info.labels.empty()) continue;  // name-only rules watch unlabeled instruments
    if (st.progress_idx == kNoIndex && info.name == st.rule.progress) st.progress_idx = i;
    if (st.armed_idx == kNoIndex && !st.rule.armed_gauge.empty() &&
        info.name == st.rule.armed_gauge) {
      st.armed_idx = i;
    }
  }
  st.scanned_until = n;
}

void AlertEngine::evaluate_stall(StallState& st, sim::Time now, std::size_t n) {
  scan_new_instruments(st, n);
  const StallRule& r = st.rule;
  if (st.progress_idx == kNoIndex) return;
  const double p = registry_.current_value(st.progress_idx);
  bool armed = true;
  double outstanding = 0.0;
  if (!r.armed_gauge.empty()) {
    outstanding = st.armed_idx != kNoIndex ? registry_.current_value(st.armed_idx) : 0.0;
    armed = outstanding > r.armed_above;
  }
  const bool breach = st.have_prev && armed && p == st.prev_progress;
  st.stalled_ticks = breach ? st.stalled_ticks + 1 : 0;
  st.prev_progress = p;
  st.have_prev = true;
  const int step = step_state(st.state, breach, !breach, r.for_ticks, r.clear_for_ticks);
  if (step != 0) {
    std::string detail = "progress=" + metrics::format_double(p) +
                         " stalled_ticks=" + std::to_string(st.stalled_ticks) +
                         " outstanding=" + metrics::format_double(outstanding);
    transition(now, r.name, step > 0, p, 0.0, std::move(detail), st.fired, st.resolved);
  }
}

void AlertEngine::scan_new_instruments(LittleState& st, std::size_t n) {
  for (std::size_t i = st.scanned_until; i < n; ++i) {
    const auto info = registry_.info(i);
    if (info.wall_clock) continue;
    if (info.name == st.rule.occupancy_integral) st.occ_matched.push_back(i);
    if (info.name == st.rule.latency_sum) st.lat_matched.push_back(i);
  }
  st.scanned_until = n;
}

void AlertEngine::evaluate_little(LittleState& st, sim::Time now, double dt_s, std::size_t n) {
  scan_new_instruments(st, n);
  const LittleLawRule& r = st.rule;
  if (st.occ_matched.empty() || st.lat_matched.empty()) return;
  double occ = 0.0, lat = 0.0;
  for (const std::size_t i : st.occ_matched) occ += registry_.current_value(i);
  for (const std::size_t i : st.lat_matched) lat += registry_.current_value(i);
  if (!st.have_prev || dt_s <= 0.0) {
    st.prev_occ = occ;
    st.prev_lat = lat;
    st.have_prev = true;
    return;
  }
  // L and λW are both time-averages over this tick's interval, derived from
  // monotone counters — immune to sampling phase by construction.
  const double little_l = (occ - st.prev_occ) / dt_s;
  const double lam_w = (lat - st.prev_lat) / dt_s;
  st.prev_occ = occ;
  st.prev_lat = lat;
  const double hi = std::max(little_l, lam_w);
  const bool active = hi >= r.min_occupancy;
  const double dev = active ? std::abs(little_l - lam_w) / std::max(hi, 1e-12) : 0.0;
  const bool breach = active && dev > r.tolerance;
  if (breach) st.deviation_ticks.inc();
  const int step = step_state(st.state, breach, !breach, r.for_ticks, r.clear_for_ticks);
  if (step != 0) {
    std::string detail = "L=" + metrics::format_double(little_l) +
                         " lambda_w=" + metrics::format_double(lam_w) +
                         " deviation=" + metrics::format_double(dev);
    transition(now, r.name, step > 0, dev, r.tolerance, std::move(detail), st.fired,
               st.resolved);
  }
}

void AlertEngine::evaluate(sim::Time now, std::uint64_t tick) {
  const auto t0 = std::chrono::steady_clock::now();
  const double dt_s = have_prev_tick_ ? sim::to_seconds(now - prev_tick_time_) : 0.0;
  const std::size_t n = registry_.instrument_count();  // one lock for all scans

  for (auto& st : thresholds_) evaluate_threshold(st, now, dt_s, n);
  for (auto& st : burns_) evaluate_burn(st, now, n);
  for (auto& st : stalls_) evaluate_stall(st, now, n);
  for (auto& st : littles_) evaluate_little(st, now, dt_s, n);

  active_gauge_.set(static_cast<double>(active_));
  prev_tick_time_ = now;
  have_prev_tick_ = true;

  if (sampler_ != nullptr) {
    if (active_ > 0) {
      last_active_tick_ = tick;
      capture_on_ = true;
    } else if (capture_on_ &&
               tick > last_active_tick_ + static_cast<std::uint64_t>(capture_hold_ticks_)) {
      capture_on_ = false;
    }
    sampler_->set_forced(capture_on_);
    if (capture_on_) ++capture_ticks_;
  }

  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
  self_time_.inc(dt.count());
}

bool AlertEngine::ever_fired(const std::string& alert) const {
  for (const auto& ev : events_) {
    if (ev.firing && ev.alert == alert) return true;
  }
  return false;
}

void AlertEngine::write_log(std::ostream& out) const {
  for (const auto& ev : events_) {
    out << "t=" << metrics::format_double(sim::to_seconds(ev.t)) << ' '
        << (ev.firing ? "FIRING" : "RESOLVED") << ' ' << ev.alert
        << " value=" << metrics::format_double(ev.value)
        << " threshold=" << metrics::format_double(ev.threshold);
    if (!ev.detail.empty()) out << ' ' << ev.detail;
    out << '\n';
  }
}

std::string AlertEngine::log_text() const {
  std::ostringstream out;
  write_log(out);
  return out.str();
}

}  // namespace serve::obs
