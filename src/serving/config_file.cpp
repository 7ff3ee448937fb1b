#include "serving/config_file.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "metrics/export.h"

namespace serve::serving {

namespace {

using metrics::format_double;

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

[[noreturn]] void fail(int line_no, const std::string& msg) {
  throw std::invalid_argument("server config line " + std::to_string(line_no) + ": " + msg);
}

/// An integer in [min_value, inf].
int parse_int(int line_no, const std::string& key, const std::string& v, int min_value) {
  std::size_t used = 0;
  int out = 0;
  try {
    out = std::stoi(v, &used);
  } catch (const std::exception&) {
    fail(line_no, "bad integer for '" + key + "': " + v);
  }
  if (used != v.size()) fail(line_no, "trailing junk for '" + key + "': " + v);
  if (out < min_value) {
    fail(line_no, "'" + key + "' = " + v + " out of range [" + std::to_string(min_value) +
                      ", inf]");
  }
  return out;
}

/// Reads decimal `v` as v * 10^-shift (the *_us keys hold seconds: shift 6),
/// moving the exponent before the one rounding to binary.
double shifted_stod(const std::string& v, int shift) {
  const auto e = v.find_first_of("eE");
  const long long exp = e == std::string::npos ? 0 : std::stoll(v.substr(e + 1));
  return std::stod(v.substr(0, e) + "e" + std::to_string(exp - shift));
}

/// A decimal in [min_value, max_value], stored times 10^-shift.
double parse_double(int line_no, const std::string& key, const std::string& v, double min_value,
                    double max_value, int shift = 0) {
  std::size_t used = 0;
  double out = 0.0;
  try {
    out = std::stod(v, &used);
  } catch (const std::exception&) {
    fail(line_no, "bad number for '" + key + "': " + v);
  }
  if (used != v.size()) fail(line_no, "trailing junk for '" + key + "': " + v);
  if (v.find_first_of("xX") != std::string::npos) {
    fail(line_no, "bad number for '" + key + "': " + v);
  }
  if (!(out >= min_value && out <= max_value)) {
    fail(line_no, "'" + key + "' = " + v + " out of range [" + std::to_string(min_value) + ", " +
                      std::to_string(max_value) + "]");
  }
  // A zero needs no shift, and its exponent may be any size ("0e-2147483648").
  return shift == 0 || out == 0.0 ? out : shifted_stod(v, shift);
}

/// Shortest decimal that shifted_stod(.., shift) reads back as `v` exactly:
/// v * 10^shift when that reads back, else v's own digits with the exponent
/// moved.
std::string format_shifted(double v, int shift) {
  const std::string plain = format_double(v * std::pow(10, shift));
  if (shifted_stod(plain, shift) == v) return plain;
  char buf[64];
  const std::string sci(
      buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::scientific).ptr);
  const auto e = sci.find('e');
  return sci.substr(0, e) + "e" + std::to_string(std::stoi(sci.substr(e + 1)) + shift);
}

/// A Time key in `unit` ns: a plain decimal, read exactly, of at most 1 ns
/// resolution whose integer part is an int of at least `min_units`.
sim::Time parse_time(int line_no, const std::string& key, const std::string& v, sim::Time unit,
                     int min_units) {
  const auto dot = std::min(v.find('.'), v.size());
  if (v.find_first_not_of("0123456789.") != std::string::npos ||
      v.find('.', dot + 1) != std::string::npos) {
    fail(line_no, "bad time for '" + key + "': " + v);
  }
  sim::Time t = parse_int(line_no, key, v.substr(0, dot), min_units) * unit;
  sim::Time place = unit;
  for (std::size_t i = dot + 1; i < v.size(); ++i) {
    place /= 10;
    if (place == 0 && v[i] != '0') fail(line_no, "'" + key + "' = " + v + " is finer than 1 ns");
    t += place * (v[i] - '0');
  }
  return t;
}

/// Exact decimal of `t` >= 0 in `unit` ns: what parse_time reads back as `t`.
std::string format_time(sim::Time t, sim::Time unit) {
  std::string frac = std::to_string(unit + t % unit).substr(1);  // zero-padded
  frac.erase(frac.find_last_not_of('0') + 1);
  return std::to_string(t / unit) + (frac.empty() ? "" : "." + frac);
}

constexpr sim::Time kUs = 1'000;
constexpr sim::Time kMs = 1'000'000;

// The kinds of value a key holds. Each reads the key's text into its field
// and writes the field as text that reads back exactly.

struct Bool {
  static bool read(int line_no, const std::string& key, const std::string& v) {
    if (v == "true" || v == "1" || v == "yes") return true;
    if (v == "false" || v == "0" || v == "no") return false;
    fail(line_no, "bad boolean for '" + key + "': " + v);
  }
  static std::string write(bool b) { return b ? "true" : "false"; }
};

/// An int of at least `min`.
struct Int {
  int min;
  int read(int line_no, const std::string& key, const std::string& v) const {
    return parse_int(line_no, key, v, min);
  }
  static std::string write(int i) { return std::to_string(i); }
};

/// A byte budget in whole MiB.
struct Mib {
  static std::int64_t read(int line_no, const std::string& key, const std::string& v) {
    return static_cast<std::int64_t>(parse_int(line_no, key, v, 0)) << 20;
  }
  static std::string write(std::int64_t bytes) { return std::to_string(bytes >> 20); }
};

/// A double in [min, max], written times 10^shift.
struct Double {
  double min;
  double max;
  int shift = 0;
  double read(int line_no, const std::string& key, const std::string& v) const {
    return parse_double(line_no, key, v, min, max, shift);
  }
  std::string write(double d) const {
    return shift == 0 ? format_double(d) : format_shifted(d, shift);
  }
};

/// A sim::Time written in `unit` ns, of at least `min_units`.
struct Time {
  sim::Time unit;
  int min_units = 0;
  sim::Time read(int line_no, const std::string& key, const std::string& v) const {
    return parse_time(line_no, key, v, unit, min_units);
  }
  std::string write(sim::Time t) const { return format_time(t, unit); }
};

/// An enum and its spellings; any other text is an "unknown <noun>", the
/// noun being the key's own name unless one is given.
template <class E, std::size_t N>
struct Enum {
  std::array<std::pair<E, std::string_view>, N> names;
  std::string_view noun;
  E read(int line_no, const std::string& key, const std::string& v) const {
    for (const auto& [e, name] : names) {
      if (name == v) return e;
    }
    fail(line_no, "unknown " + (noun.empty() ? key : std::string(noun)) + " '" + v + "'");
  }
  std::string write(E e) const {
    for (const auto& [value, name] : names) {
      if (value == e) return std::string(name);
    }
    return "?";
  }
};

/// An enum spelled by its own name function.
template <class Name, class E, std::size_t N>
Enum<E, N> named(Name name, const E (&values)[N], std::string_view noun = {}) {
  Enum<E, N> kind{{}, noun};
  for (std::size_t i = 0; i < N; ++i) kind.names[i] = {values[i], name(values[i])};
  return kind;
}

/// An enum whose config spellings are listed here.
template <class E, std::size_t N>
Enum<E, N> spelled(const std::pair<E, std::string_view> (&names)[N], std::string_view noun) {
  return {std::to_array(names), noun};
}

/// A model-zoo name.
struct Model {
  static models::ModelDesc read(int line_no, const std::string& /*key*/, const std::string& v) {
    try {
      return models::find_model(v);
    } catch (const std::out_of_range&) {
      throw std::out_of_range("server config line " + std::to_string(line_no) +
                              ": unknown model '" + v + "'");
    }
  }
  static std::string write(const models::ModelDesc& m) { return std::string(m.name); }
};

/// The config text's one list of keys, in write order: calls
/// visit(name, field, kind) for each key. parse_server_config reads the
/// matching key through it and format_server_config writes every key.
template <class Visit>
void for_each_key(ServerConfig& c, Visit&& visit) {
  using models::Backend;
  auto& cache = c.ingress_cache;
  auto& health = c.balancer.health;
  auto& hedge = c.balancer.hedge;
  visit("model", c.model, Model{});
  visit("backend", c.backend,
        named(models::backend_name,
              {Backend::kTensorRT, Backend::kOnnxRuntime, Backend::kPyTorch}));
  visit("preprocessing", c.preproc,
        named(preproc_device_name, {PreprocDevice::kCpu, PreprocDevice::kGpu},
              "preprocessing device"));
  visit("mode", c.mode,
        spelled<PipelineMode>({{PipelineMode::kEndToEnd, "end_to_end"},
                               {PipelineMode::kPreprocessOnly, "preprocess_only"},
                               {PipelineMode::kInferenceOnly, "inference_only"}},
                              "pipeline mode"));
  visit("ingress", c.ingress,
        named(ingress_format_name, {IngressFormat::kCompressedImage, IngressFormat::kRawTensor},
              "ingress format"));
  visit("ingress_cache", cache.enabled, Bool{});
  visit("ingress_cache_image_mb", cache.image_budget_bytes, Mib{});
  visit("ingress_cache_tensor_mb", cache.tensor_budget_bytes, Mib{});
  visit("ingress_cache_lookup_us", cache.lookup_s, Double{0.0, 1e6, 6});
  visit("dynamic_batching", c.dynamic_batching, Bool{});
  visit("max_batch", c.max_batch, Int{0});
  visit("instance_count", c.instance_count, Int{1});
  visit("fixed_batch", c.fixed_batch, Int{1});
  visit("max_queue_delay_us", c.max_queue_delay, Time{kUs});
  visit("shed_deadline_ms", c.shed_deadline, Time{kMs});
  visit("audit", c.audit, Bool{});
  visit("validate_payloads", c.validate_payloads, Bool{});
  visit("retry", c.retry.enabled, Bool{});
  visit("retry_max_attempts", c.retry.max_attempts, Int{1});
  visit("retry_timeout_ms", c.retry.timeout, Time{kMs});
  visit("retry_backoff_base_ms", c.retry.backoff_base, Time{kMs});
  visit("retry_backoff_cap_ms", c.retry.backoff_cap, Time{kMs});
  visit("retry_budget", c.retry.retry_budget, Double{0.0, 1e9});
  visit("retry_budget_refill", c.retry.budget_refill_per_success, Double{0.0, 1e9});
  visit("circuit_breaker", c.breaker.enabled, Bool{});
  visit("breaker_queue_depth", c.breaker.queue_depth_open, Int{1});
  visit("breaker_error_rate", c.breaker.error_rate_open, Double{0.0, 1.0});
  visit("breaker_open_ms", c.breaker.open_duration, Time{kMs});
  visit("breaker_half_open_probes", c.breaker.half_open_probes, Int{1});
  visit("degrade", c.degrade.enabled, Bool{});
  visit("degrade_hysteresis_ms", c.degrade.hysteresis, Time{kMs});
  visit("broker_publish", c.broker_publish.publish_results, Bool{});
  visit("broker_retry", c.broker_publish.retry_enabled, Bool{});
  visit("broker_max_attempts", c.broker_publish.max_attempts, Int{1});
  visit("broker_backoff_ms", c.broker_publish.backoff_base, Time{kMs});
  visit("broker_poll_ms", c.broker_publish.poll_interval, Time{kMs});
  // Config spellings, not balancer_policy_name's display ones ("round-robin"),
  // which the fleet trace goldens and ablation_balancer's stdout pin.
  visit("balancer_policy", c.balancer.policy,
        spelled<BalancerPolicy>({{BalancerPolicy::kRoundRobin, "round_robin"},
                                 {BalancerPolicy::kRandom, "random"},
                                 {BalancerPolicy::kLeastOutstanding, "least_outstanding"},
                                 {BalancerPolicy::kPowerOfTwo, "p2c"},
                                 {BalancerPolicy::kLatencyWeighted, "latency_weighted"}},
                                "balancer policy"));
  visit("health_checks", health.enabled, Bool{});
  visit("health_probe_interval_ms", health.probe_interval, Time{kMs, 1});
  visit("health_probe_timeout_ms", health.probe_timeout, Time{kMs, 1});
  visit("health_probe_cost_us", health.probe_cost_s, Double{0.0, 1e6, 6});
  visit("health_ewma_alpha", health.ewma_alpha, Double{1e-6, 1.0});
  visit("health_eject_score", health.eject_score, Double{0.0, 1.0});
  visit("health_eject_probe_failures", health.eject_probe_failures, Int{1});
  visit("health_eject_ms", health.eject_duration, Time{kMs, 1});
  visit("health_rejoin_probes", health.rejoin_probes, Int{1});
  visit("hedge", hedge.enabled, Bool{});
  visit("hedge_deadline_ms", hedge.deadline, Time{kMs, 1});
  visit("hedge_budget", hedge.budget, Double{0.0, 1e9});
  visit("hedge_budget_refill", hedge.budget_refill_per_success, Double{0.0, 1e9});
}

}  // namespace

ServerConfig parse_server_config(const std::string& text) {
  ServerConfig cfg;
  std::istringstream in{text};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const auto eq = stripped.find('=');
    if (eq == std::string::npos) fail(line_no, "expected key = value");
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    if (key.empty() || value.empty()) fail(line_no, "empty key or value");
    bool known = false;
    for_each_key(cfg, [&](std::string_view name, auto& field, const auto& kind) {
      if (name != key) return;
      field = kind.read(line_no, key, value);
      known = true;
    });
    if (!known) fail(line_no, "unknown key '" + key + "'");
  }
  if (cfg.model.name.empty()) throw std::invalid_argument("server config: 'model' is required");
  (void)cfg.effective_max_batch();  // validate batch bounds now, not at deploy
  return cfg;
}

ServerConfig load_server_config(const std::filesystem::path& path) {
  std::ifstream in{path};
  if (!in) throw std::invalid_argument("server config: cannot open " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return parse_server_config(text.str());
}

std::string format_server_config(const ServerConfig& config) {
  ServerConfig c = config;
  c.max_batch = config.effective_max_batch();
  std::ostringstream out;
  for_each_key(c, [&](std::string_view name, const auto& field, const auto& kind) {
    out << name << " = " << kind.write(field) << "\n";
  });
  return out.str();
}

}  // namespace serve::serving
