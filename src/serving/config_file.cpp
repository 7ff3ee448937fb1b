#include "serving/config_file.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

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

bool parse_bool(int line_no, const std::string& key, const std::string& v) {
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  fail(line_no, "bad boolean for '" + key + "': " + v);
}

int parse_int(int line_no, const std::string& key, const std::string& v, int min_value,
              int max_value = std::numeric_limits<int>::max()) {
  std::size_t used = 0;
  int out = 0;
  try {
    out = std::stoi(v, &used);
  } catch (const std::exception&) {
    fail(line_no, "bad integer for '" + key + "': " + v);
  }
  if (used != v.size()) fail(line_no, "trailing junk for '" + key + "': " + v);
  if (out < min_value || out > max_value) {
    fail(line_no, "'" + key + "' = " + v + " out of range [" + std::to_string(min_value) + ", " +
                      (max_value == std::numeric_limits<int>::max() ? std::string("inf")
                                                                    : std::to_string(max_value)) +
                      "]");
  }
  return out;
}

/// Reads decimal `v` as v * 10^-shift (the *_us keys hold seconds: shift 6),
/// moving the exponent before the one rounding to binary.
double shifted_stod(const std::string& v, int shift) {
  const auto e = v.find_first_of("eE");
  const int exp = e == std::string::npos ? 0 : std::stoi(v.substr(e + 1));
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
  return shift == 0 ? out : shifted_stod(v, shift);
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

}  // namespace

ServerConfig parse_server_config(const std::string& text) {
  ServerConfig cfg;
  bool have_model = false;
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

    if (key == "model") {
      try {
        cfg.model = models::find_model(value);
      } catch (const std::out_of_range&) {
        throw std::out_of_range("server config line " + std::to_string(line_no) +
                                ": unknown model '" + value + "'");
      }
      have_model = true;
    } else if (key == "backend") {
      if (value == "tensorrt") {
        cfg.backend = models::Backend::kTensorRT;
      } else if (value == "onnxruntime") {
        cfg.backend = models::Backend::kOnnxRuntime;
      } else if (value == "pytorch") {
        cfg.backend = models::Backend::kPyTorch;
      } else {
        fail(line_no, "unknown backend '" + value + "'");
      }
    } else if (key == "preprocessing") {
      if (value == "cpu") {
        cfg.preproc = PreprocDevice::kCpu;
      } else if (value == "gpu") {
        cfg.preproc = PreprocDevice::kGpu;
      } else {
        fail(line_no, "unknown preprocessing device '" + value + "'");
      }
    } else if (key == "mode") {
      if (value == "end_to_end") {
        cfg.mode = PipelineMode::kEndToEnd;
      } else if (value == "preprocess_only") {
        cfg.mode = PipelineMode::kPreprocessOnly;
      } else if (value == "inference_only") {
        cfg.mode = PipelineMode::kInferenceOnly;
      } else {
        fail(line_no, "unknown pipeline mode '" + value + "'");
      }
    } else if (key == "ingress") {
      if (value == "jpeg") {
        cfg.ingress = IngressFormat::kCompressedImage;
      } else if (value == "tensor") {
        cfg.ingress = IngressFormat::kRawTensor;
      } else {
        fail(line_no, "unknown ingress format '" + value + "'");
      }
    } else if (key == "ingress_cache") {
      cfg.ingress_cache.enabled = parse_bool(line_no, key, value);
    } else if (key == "ingress_cache_image_mb") {
      cfg.ingress_cache.image_budget_bytes =
          static_cast<std::int64_t>(parse_int(line_no, key, value, 0)) << 20;
    } else if (key == "ingress_cache_tensor_mb") {
      cfg.ingress_cache.tensor_budget_bytes =
          static_cast<std::int64_t>(parse_int(line_no, key, value, 0)) << 20;
    } else if (key == "ingress_cache_lookup_us") {
      cfg.ingress_cache.lookup_s = parse_double(line_no, key, value, 0.0, 1e6, 6);
    } else if (key == "dynamic_batching") {
      cfg.dynamic_batching = parse_bool(line_no, key, value);
    } else if (key == "max_batch") {
      cfg.max_batch = parse_int(line_no, key, value, 0);
    } else if (key == "instance_count") {
      cfg.instance_count = parse_int(line_no, key, value, 1);
    } else if (key == "fixed_batch") {
      cfg.fixed_batch = parse_int(line_no, key, value, 1);
    } else if (key == "max_queue_delay_us") {
      cfg.max_queue_delay = parse_time(line_no, key, value, kUs, 0);
    } else if (key == "shed_deadline_ms") {
      cfg.shed_deadline = parse_time(line_no, key, value, kMs, 0);
    } else if (key == "audit") {
      cfg.audit = parse_bool(line_no, key, value);
    } else if (key == "validate_payloads") {
      cfg.validate_payloads = parse_bool(line_no, key, value);
    } else if (key == "retry") {
      cfg.retry.enabled = parse_bool(line_no, key, value);
    } else if (key == "retry_max_attempts") {
      cfg.retry.max_attempts = parse_int(line_no, key, value, 1);
    } else if (key == "retry_timeout_ms") {
      cfg.retry.timeout = parse_time(line_no, key, value, kMs, 0);
    } else if (key == "retry_backoff_base_ms") {
      cfg.retry.backoff_base = parse_time(line_no, key, value, kMs, 0);
    } else if (key == "retry_backoff_cap_ms") {
      cfg.retry.backoff_cap = parse_time(line_no, key, value, kMs, 0);
    } else if (key == "retry_budget") {
      cfg.retry.retry_budget = parse_double(line_no, key, value, 0.0, 1e9);
    } else if (key == "retry_budget_refill") {
      cfg.retry.budget_refill_per_success = parse_double(line_no, key, value, 0.0, 1e9);
    } else if (key == "circuit_breaker") {
      cfg.breaker.enabled = parse_bool(line_no, key, value);
    } else if (key == "breaker_queue_depth") {
      cfg.breaker.queue_depth_open = parse_int(line_no, key, value, 1);
    } else if (key == "breaker_error_rate") {
      cfg.breaker.error_rate_open = parse_double(line_no, key, value, 0.0, 1.0);
    } else if (key == "breaker_open_ms") {
      cfg.breaker.open_duration = parse_time(line_no, key, value, kMs, 0);
    } else if (key == "breaker_half_open_probes") {
      cfg.breaker.half_open_probes = parse_int(line_no, key, value, 1);
    } else if (key == "degrade") {
      cfg.degrade.enabled = parse_bool(line_no, key, value);
    } else if (key == "degrade_hysteresis_ms") {
      cfg.degrade.hysteresis = parse_time(line_no, key, value, kMs, 0);
    } else if (key == "broker_publish") {
      cfg.broker_publish.publish_results = parse_bool(line_no, key, value);
    } else if (key == "broker_retry") {
      cfg.broker_publish.retry_enabled = parse_bool(line_no, key, value);
    } else if (key == "broker_max_attempts") {
      cfg.broker_publish.max_attempts = parse_int(line_no, key, value, 1);
    } else if (key == "broker_backoff_ms") {
      cfg.broker_publish.backoff_base = parse_time(line_no, key, value, kMs, 0);
    } else if (key == "broker_poll_ms") {
      cfg.broker_publish.poll_interval = parse_time(line_no, key, value, kMs, 0);
    } else if (key == "balancer_policy") {
      if (value == "round_robin") {
        cfg.balancer.policy = BalancerPolicy::kRoundRobin;
      } else if (value == "random") {
        cfg.balancer.policy = BalancerPolicy::kRandom;
      } else if (value == "least_outstanding") {
        cfg.balancer.policy = BalancerPolicy::kLeastOutstanding;
      } else if (value == "p2c") {
        cfg.balancer.policy = BalancerPolicy::kPowerOfTwo;
      } else if (value == "latency_weighted") {
        cfg.balancer.policy = BalancerPolicy::kLatencyWeighted;
      } else {
        fail(line_no, "unknown balancer policy '" + value + "'");
      }
    } else if (key == "health_checks") {
      cfg.balancer.health.enabled = parse_bool(line_no, key, value);
    } else if (key == "health_probe_interval_ms") {
      cfg.balancer.health.probe_interval = parse_time(line_no, key, value, kMs, 1);
    } else if (key == "health_probe_timeout_ms") {
      cfg.balancer.health.probe_timeout = parse_time(line_no, key, value, kMs, 1);
    } else if (key == "health_probe_cost_us") {
      cfg.balancer.health.probe_cost_s = parse_double(line_no, key, value, 0.0, 1e6, 6);
    } else if (key == "health_ewma_alpha") {
      cfg.balancer.health.ewma_alpha = parse_double(line_no, key, value, 1e-6, 1.0);
    } else if (key == "health_eject_score") {
      cfg.balancer.health.eject_score = parse_double(line_no, key, value, 0.0, 1.0);
    } else if (key == "health_eject_probe_failures") {
      cfg.balancer.health.eject_probe_failures = parse_int(line_no, key, value, 1);
    } else if (key == "health_eject_ms") {
      cfg.balancer.health.eject_duration = parse_time(line_no, key, value, kMs, 1);
    } else if (key == "health_rejoin_probes") {
      cfg.balancer.health.rejoin_probes = parse_int(line_no, key, value, 1);
    } else if (key == "hedge") {
      cfg.balancer.hedge.enabled = parse_bool(line_no, key, value);
    } else if (key == "hedge_deadline_ms") {
      cfg.balancer.hedge.deadline = parse_time(line_no, key, value, kMs, 1);
    } else if (key == "hedge_budget") {
      cfg.balancer.hedge.budget = parse_double(line_no, key, value, 0.0, 1e9);
    } else if (key == "hedge_budget_refill") {
      cfg.balancer.hedge.budget_refill_per_success = parse_double(line_no, key, value, 0.0, 1e9);
    } else {
      fail(line_no, "unknown key '" + key + "'");
    }
  }
  if (!have_model) throw std::invalid_argument("server config: 'model' is required");
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
  std::ostringstream out;
  out << "model = " << config.model.name << "\n";
  out << "backend = " << models::backend_name(config.backend) << "\n";
  out << "preprocessing = " << preproc_device_name(config.preproc) << "\n";
  out << "mode = "
      << (config.mode == PipelineMode::kEndToEnd
              ? "end_to_end"
              : config.mode == PipelineMode::kPreprocessOnly ? "preprocess_only"
                                                             : "inference_only")
      << "\n";
  out << "ingress = " << ingress_format_name(config.ingress) << "\n";
  out << "ingress_cache = " << (config.ingress_cache.enabled ? "true" : "false") << "\n";
  out << "ingress_cache_image_mb = " << (config.ingress_cache.image_budget_bytes >> 20) << "\n";
  out << "ingress_cache_tensor_mb = " << (config.ingress_cache.tensor_budget_bytes >> 20) << "\n";
  out << "ingress_cache_lookup_us = " << format_shifted(config.ingress_cache.lookup_s, 6) << "\n";
  out << "dynamic_batching = " << (config.dynamic_batching ? "true" : "false") << "\n";
  out << "max_batch = " << config.effective_max_batch() << "\n";
  out << "instance_count = " << config.instance_count << "\n";
  out << "fixed_batch = " << config.fixed_batch << "\n";
  out << "max_queue_delay_us = " << format_time(config.max_queue_delay, kUs) << "\n";
  out << "shed_deadline_ms = " << format_time(config.shed_deadline, kMs) << "\n";
  out << "audit = " << (config.audit ? "true" : "false") << "\n";
  out << "validate_payloads = " << (config.validate_payloads ? "true" : "false") << "\n";
  out << "retry = " << (config.retry.enabled ? "true" : "false") << "\n";
  out << "retry_max_attempts = " << config.retry.max_attempts << "\n";
  out << "retry_timeout_ms = " << format_time(config.retry.timeout, kMs) << "\n";
  out << "retry_backoff_base_ms = " << format_time(config.retry.backoff_base, kMs) << "\n";
  out << "retry_backoff_cap_ms = " << format_time(config.retry.backoff_cap, kMs) << "\n";
  out << "retry_budget = " << format_double(config.retry.retry_budget) << "\n";
  out << "retry_budget_refill = " << format_double(config.retry.budget_refill_per_success)
      << "\n";
  out << "circuit_breaker = " << (config.breaker.enabled ? "true" : "false") << "\n";
  out << "breaker_queue_depth = " << config.breaker.queue_depth_open << "\n";
  out << "breaker_error_rate = " << format_double(config.breaker.error_rate_open) << "\n";
  out << "breaker_open_ms = " << format_time(config.breaker.open_duration, kMs) << "\n";
  out << "breaker_half_open_probes = " << config.breaker.half_open_probes << "\n";
  out << "degrade = " << (config.degrade.enabled ? "true" : "false") << "\n";
  out << "degrade_hysteresis_ms = " << format_time(config.degrade.hysteresis, kMs) << "\n";
  out << "broker_publish = " << (config.broker_publish.publish_results ? "true" : "false") << "\n";
  out << "broker_retry = " << (config.broker_publish.retry_enabled ? "true" : "false") << "\n";
  out << "broker_max_attempts = " << config.broker_publish.max_attempts << "\n";
  out << "broker_backoff_ms = " << format_time(config.broker_publish.backoff_base, kMs) << "\n";
  out << "broker_poll_ms = " << format_time(config.broker_publish.poll_interval, kMs) << "\n";
  out << "balancer_policy = "
      << (config.balancer.policy == BalancerPolicy::kRoundRobin          ? "round_robin"
          : config.balancer.policy == BalancerPolicy::kRandom            ? "random"
          : config.balancer.policy == BalancerPolicy::kLeastOutstanding  ? "least_outstanding"
          : config.balancer.policy == BalancerPolicy::kPowerOfTwo        ? "p2c"
                                                                         : "latency_weighted")
      << "\n";
  out << "health_checks = " << (config.balancer.health.enabled ? "true" : "false") << "\n";
  out << "health_probe_interval_ms = "
      << format_time(config.balancer.health.probe_interval, kMs) << "\n";
  out << "health_probe_timeout_ms = "
      << format_time(config.balancer.health.probe_timeout, kMs) << "\n";
  out << "health_probe_cost_us = " << format_shifted(config.balancer.health.probe_cost_s, 6)
      << "\n";
  out << "health_ewma_alpha = " << format_double(config.balancer.health.ewma_alpha) << "\n";
  out << "health_eject_score = " << format_double(config.balancer.health.eject_score) << "\n";
  out << "health_eject_probe_failures = " << config.balancer.health.eject_probe_failures << "\n";
  out << "health_eject_ms = " << format_time(config.balancer.health.eject_duration, kMs)
      << "\n";
  out << "health_rejoin_probes = " << config.balancer.health.rejoin_probes << "\n";
  out << "hedge = " << (config.balancer.hedge.enabled ? "true" : "false") << "\n";
  out << "hedge_deadline_ms = " << format_time(config.balancer.hedge.deadline, kMs) << "\n";
  out << "hedge_budget = " << format_double(config.balancer.hedge.budget) << "\n";
  out << "hedge_budget_refill = " << format_double(config.balancer.hedge.budget_refill_per_success)
      << "\n";
  return out.str();
}

}  // namespace serve::serving
