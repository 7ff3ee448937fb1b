// servescope: one CLI over one loader for everything a run leaves behind.
//
//   servescope report      telemetry.json [--slo <seconds>] [--slo-target <0..1>]
//   servescope capacity    telemetry.json
//   servescope diff        base.json candidate.json [--tolerance <frac>]
//   servescope traces      trace.json [--top <n>] [--tolerance <frac>]
//   servescope bench-check baseline.json current.json [--tolerance <frac>] [--allow-debug]
//
// Every subcommand reads its files through tools/telemetry_view.h, so the
// same export yields the same quantiles, stage seconds and capacity verdicts
// wherever it is rendered.
//
// Exit codes (all subcommands): 0 success, 1 the subcommand's gate failed
// (diff: regression; traces: a check failed; bench-check: regression or a
// debug-build file), 2 unreadable, malformed or wrong-schema input, or bad
// arguments (an unknown subcommand prints the usage and exits 2).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/breakdown.h"
#include "sim/time.h"
#include "trace/critical_path.h"

#include "telemetry_view.h"

namespace {

using jsonmini::Value;
using serve::sim::Time;
using serve::trace::CriticalPath;
using serve::trace::SpanRecord;
using namespace telemetry;

// --- argument convention -------------------------------------------------------

struct Command {
  std::string_view name;
  std::string_view synopsis;  ///< arguments after the subcommand name
  std::size_t files;          ///< positional file arguments it takes
  int (*run)(const Command&, int argc, char** argv);
};

/// A subcommand option: `--name <number>` or a bare `--name` flag.
struct Option {
  Option(std::string_view n, double& v) : name(n), number(&v) {}
  Option(std::string_view n, bool& f) : name(n), flag(&f) {}
  std::string_view name;
  double* number = nullptr;
  bool* flag = nullptr;
};

[[noreturn]] void usage_error(const Command& cmd, const std::string& what) {
  std::fprintf(stderr, "servescope %s: %s\nusage: servescope %s %s\n", cmd.name.data(),
               what.c_str(), cmd.name.data(), cmd.synopsis.data());
  std::exit(2);
}

/// Parses the arguments after the subcommand name: `--help` prints the usage
/// and exits 0; an unknown option, a non-numeric value or the wrong number
/// of files exits 2. Returns the file arguments.
std::vector<std::string> parse_args(const Command& cmd, int argc, char** argv,
                                    std::initializer_list<Option> options) {
  std::vector<std::string> files;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("usage: servescope %s %s\n", cmd.name.data(), cmd.synopsis.data());
      std::exit(0);
    }
    if (arg.empty() || arg.front() != '-') {
      files.emplace_back(arg);
      continue;
    }
    const auto opt = std::find_if(options.begin(), options.end(),
                                  [arg](const Option& o) { return o.name == arg; });
    if (opt == options.end()) usage_error(cmd, "unknown option '" + std::string(arg) + "'");
    if (opt->flag != nullptr) {
      *opt->flag = true;
      continue;
    }
    char* end = nullptr;
    if (i + 1 < argc) *opt->number = std::strtod(argv[i + 1], &end);
    if (end == nullptr || end == argv[i + 1] || *end != '\0') {
      usage_error(cmd, std::string(arg) + " needs a number");
    }
    ++i;
  }
  if (files.size() != cmd.files) {
    usage_error(cmd, "expected " + std::to_string(cmd.files) + " file argument(s)");
  }
  return files;
}

// --- capacity (shared by `capacity` and `report`) ------------------------------

/// Per-resource utilization timelines with saturation flags, binding-resource
/// segments, the headroom knee estimate and the Little's-law audit.
void print_capacity(const Capacity& cap) {
  const std::size_t intervals = cap.intervals();
  std::printf("\nCapacity (%zu resources, %zu intervals of %.0f ms, utilization scale 0..100%%):\n",
              cap.resources.size(), intervals, cap.period_s * 1e3);
  if (intervals == 0 || cap.period_s <= 0.0) {
    // Zero-elapsed or empty-series exports (a run that never completed a
    // recorder interval) carry the section but no data.
    std::printf("  (no capacity intervals recorded)\n");
    return;
  }
  for (const auto& r : cap.resources) {
    double sum = 0.0, peak = 0.0, qsum = 0.0;
    std::size_t n = 0;
    for (const double x : r.busy) {
      if (!std::isfinite(x)) continue;
      sum += x;
      peak = std::max(peak, x);
      ++n;
    }
    for (const double x : r.queue) {
      if (std::isfinite(x)) qsum += x;
    }
    std::printf("  %-24s %s\n", r.label.c_str(), sparkline(r.busy, Scale::kUnit).c_str());
    if (n == 0) {
      std::printf("  %-24s cap %.0f, no finite samples\n", "", r.capacity);
      continue;
    }
    const double qmean = r.queue.empty() ? 0.0 : qsum / static_cast<double>(r.queue.size());
    std::printf("  %-24s cap %.0f, mean %.1f%%, peak %.1f%%, queue %.2f%s\n", "", r.capacity,
                100.0 * sum / static_cast<double>(n), 100.0 * peak, qmean,
                peak >= kSaturated ? "  << SATURATED" : "");
  }

  std::printf("\nBinding-resource segments:\n");
  bool any_segment = false;
  for (const Segment& s : cap.segments) {
    if (s.end <= s.begin) continue;
    any_segment = true;
    std::printf("  [%4zu, %4zu)  %6.1fs..%6.1fs  %-24s %5.1f%% of run\n", s.begin, s.end,
                static_cast<double>(s.begin) * cap.period_s,
                static_cast<double>(s.end) * cap.period_s, s.resource.c_str(),
                100.0 * static_cast<double>(s.end - s.begin) / static_cast<double>(intervals));
  }
  if (!any_segment) std::printf("  (none recorded)\n");

  std::printf("\nKnee estimate:\n");
  std::printf("  binding resource: %s (stage '%s')\n", cap.binding.c_str(),
              cap.binding_stage.c_str());
  if (cap.sustainable_rps > 0.0 && std::isfinite(cap.sustainable_rps)) {
    std::printf("  est. max sustainable rate: %.1f req/s\n", cap.sustainable_rps);
  } else {
    std::printf("  est. max sustainable rate: n/a (no loaded intervals)\n");
  }

  if (cap.violations.empty()) {
    std::printf("\nLittle's-law audit: clean over %zu interval(s)\n", cap.audited);
  } else {
    std::printf("\nLittle's-law audit: %zu/%zu interval(s) deviated at:", cap.violations.size(),
                cap.audited);
    for (const std::size_t i : cap.violations) {
      std::printf(" %.1fs", static_cast<double>(i + 1) * cap.period_s);
    }
    std::printf("\n  (L != lambda*W marks backlog growth/drain — fault or overload windows)\n");
  }
}

// Exit codes: 0 on success (including a file with no capacity section, which
// is absent data, not malformed input), 2 on unusable input.
int run_capacity(const Command& cmd, int argc, char** argv) {
  const std::string path = parse_args(cmd, argc, argv, {}).front();
  const Value doc = load_telemetry(path);
  std::printf("=== servescope capacity: %s ===\n", path.c_str());
  if (const auto cap = capacity_of(doc)) {
    print_capacity(*cap);
  } else {
    std::printf("  no capacity section (attach an obs::CapacityPlane and re-export)\n");
  }
  return 0;
}

// --- report ----------------------------------------------------------------------

/// Element-wise sum of every recorded series named `name` (servescope series
/// share the recorder cadence; shorter late-joining series align at the tail
/// end, which is good enough for a human-facing summary).
std::vector<double> summed_series(const Value* points, std::string_view name) {
  std::vector<double> out;
  if (points == nullptr || !points->is_array()) return out;
  for (const Value& p : points->array) {
    if (p.str_or("name", "") != name) continue;
    const std::vector<double> samples = numbers(p.find("samples"));
    out.resize(std::max(out.size(), samples.size()), 0.0);
    for (std::size_t i = 0; i < samples.size(); ++i) out[i] += samples[i];
  }
  return out;
}

std::vector<double> differenced(const std::vector<double>& cum, double period_s) {
  std::vector<double> out;
  if (cum.size() < 2 || period_s <= 0) return out;
  out.reserve(cum.size() - 1);
  for (std::size_t i = 1; i < cum.size(); ++i) out.push_back((cum[i] - cum[i - 1]) / period_s);
  return out;
}

void print_timeline_row(const char* label, const std::vector<double>& v, const char* unit) {
  if (v.size() < 3) {
    // One or two samples have no meaningful thirds; print them verbatim.
    std::string vals;
    for (const double x : v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.1f", vals.empty() ? "" : ", ", x);
      vals += buf;
    }
    std::printf("  %-14s %s %s (too few samples for a trend)\n", label,
                v.empty() ? "(no samples)" : vals.c_str(), v.empty() ? "" : unit);
    return;
  }
  const std::size_t n = v.size();
  const double first = mean_over(v, 0, n / 3);
  const double last = mean_over(v, 2 * n / 3, n);
  std::printf("  %-14s %s\n", label, sparkline(v, Scale::kMinMax).c_str());
  if (first != 0.0 && std::isfinite(first) && std::isfinite(last)) {
    std::printf("  %-14s first⅓ %.1f %s, last⅓ %.1f %s (%+.1f%%)\n", "", first, unit, last,
                unit, 100.0 * (last - first) / first);
  } else {
    // A zero or non-finite first third makes the relative change meaningless.
    std::printf("  %-14s first⅓ %.1f %s, last⅓ %.1f %s (change n/a)\n", "", first, unit, last,
                unit);
  }
}

// Renders a recorded run (bench --json-out, typically fig05_concurrency
// --record): timeline sparklines of throughput, queue depth and eviction rate
// with first-third vs last-third deltas (the temporal shape behind Fig. 5);
// the per-stage breakdown; SLO attainment and error-budget burn rate
// ((1 - attainment) / (1 - target)) from the latency histogram; alerts;
// fleet health; the capacity section; and the bench's shape checks.
int run_report(const Command& cmd, int argc, char** argv) {
  double slo_s = 0.25;
  double slo_target = 0.99;
  const std::string path =
      parse_args(cmd, argc, argv, {{"--slo", slo_s}, {"--slo-target", slo_target}}).front();
  if (slo_s <= 0 || slo_target <= 0 || slo_target >= 1) {
    usage_error(cmd, "--slo must be > 0 and --slo-target in (0, 1)");
  }
  const Value doc = load_telemetry(path);

  std::printf("=== servescope run report: %s ===\n", path.c_str());
  if (const Value* ctx = doc.find("context"); ctx != nullptr && ctx->is_object()) {
    for (const auto& [k, v] : ctx->object) {
      if (v.is_string()) std::printf("  %-12s %s\n", k.c_str(), v.str.c_str());
    }
  }

  if (const Value* series = doc.find("series"); series != nullptr && series->is_object()) {
    const double period_s = series->num_or("period_s", 0.0);
    const Value* points = series->find("points");
    std::printf("\nTimeline (%zu series, %.0f ms cadence):\n",
                points != nullptr && points->is_array() ? points->array.size() : 0,
                period_s * 1e3);
    print_timeline_row("tput img/s",
                       differenced(summed_series(points, "serving_requests_completed_total"),
                                   period_s), "img/s");
    print_timeline_row("queue depth", summed_series(points, "serving_queue_depth"), "reqs");
    print_timeline_row("evictions/s",
                       differenced(summed_series(points, "gpu_staging_evictions_total"),
                                   period_s), "ev/s");
  } else {
    std::printf("\nTimeline: no recorded series (run the bench with --record)\n");
  }

  const Instruments ins = digest(doc);
  if (!ins.stage_seconds.empty()) {
    double total = 0.0;
    for (const auto& [_, v] : ins.stage_seconds) total += v;
    std::printf("\nPer-stage time (cumulative request-seconds):\n");
    std::printf("  %-12s %14s %8s\n", "stage", "seconds", "share");
    for (const auto& [stage, v] : ins.stage_seconds) {
      std::printf("  %-12s %14.2f %7.1f%%\n", stage.c_str(), v,
                  total > 0 ? 100.0 * v / total : 0.0);
    }
  }

  if (ins.latency && ins.latency->count == 0) {
    // An export from a run that completed nothing (e.g. a total-outage fault
    // window) still has the histogram registered; every quantile of an empty
    // histogram is exactly 0, which would render as a perfect SLO. Say what
    // actually happened instead.
    std::printf("\nLatency SLO: no completed requests recorded\n");
  } else if (ins.latency) {
    const Histogram& h = *ins.latency;
    const double att = attainment(h, slo_s);
    const double burn = (1.0 - att) / (1.0 - slo_target);
    std::printf("\nLatency SLO (objective %.0f ms at %.2f%% target):\n", slo_s * 1e3,
                100.0 * slo_target);
    std::printf("  p50 %.1f ms   p95 %.1f ms   p99 %.1f ms   p99.9 %.1f ms   (n=%llu)\n",
                quantile(h, 0.50) * 1e3, quantile(h, 0.95) * 1e3, quantile(h, 0.99) * 1e3,
                quantile(h, 0.999) * 1e3, static_cast<unsigned long long>(h.count));
    std::printf("  attainment %.2f%%   error-budget burn rate %.1fx%s\n", 100.0 * att, burn,
                burn > 1.0 ? "  (burning faster than budget)" : "");
  }

  if (!ins.alerts.empty()) {
    bool any = false;
    for (const auto& [_, a] : ins.alerts) any = any || a.fired > 0.0;
    std::printf("\nAlerts:%s\n", any ? "" : " all rules silent");
    for (const auto& [name, a] : ins.alerts) {
      if (a.fired <= 0.0) continue;
      std::printf("  %-24s fired %.0f time(s), resolved %.0f time(s)%s\n", name.c_str(), a.fired,
                  a.resolved, a.fired > a.resolved ? "  (still firing at end of run)" : "");
    }
  }

  if (!ins.fleet.empty()) {
    std::printf("\nFleet health (end-of-run balancer view):\n");
    std::printf("  %-6s %-10s %-12s %12s %10s %8s\n", "node", "state", "score", "dispatches",
                "ejections", "rejoins");
    for (const auto& [node, n] : ins.fleet) {
      const char* state = n.state >= 1.0 ? "healthy" : n.state >= 0.5 ? "half-open" : "ejected";
      char bar[11];
      const int filled = static_cast<int>(std::clamp(n.score * 10.0 + 0.5, 0.0, 10.0));
      for (int i = 0; i < 10; ++i) bar[i] = i < filled ? '#' : '.';
      bar[10] = '\0';
      std::printf("  %-6s %-10s %s %12.0f %10.0f %8.0f\n", node.c_str(), state, bar, n.dispatches,
                  n.ejections, n.rejoins);
    }
  }

  if (const auto cap = capacity_of(doc)) print_capacity(*cap);

  if (const Value* checks = doc.find("checks"); checks != nullptr && checks->is_array()) {
    const auto passed = [](const Value& c) {
      const Value* p = c.find("pass");
      return p != nullptr && p->boolean;
    };
    const auto pass = std::count_if(checks->array.begin(), checks->array.end(), passed);
    std::printf("\nShape checks: %td/%zu passed\n", pass, checks->array.size());
    for (const Value& c : checks->array) {
      std::printf("  [%s] %s\n", passed(c) ? "PASS" : "DEVIATION", c.str_or("claim", "?").c_str());
    }
  }
  return 0;
}

// --- diff ------------------------------------------------------------------------

/// One run's per-request view for `diff`.
struct RunView {
  double p99_s = 0.0;
  bool have_p99 = false;
  std::map<std::string, double> stage_per_req_s;  ///< stage -> seconds/request
  std::map<std::string, double> alerts_fired;     ///< alert name -> fire count
  std::map<std::string, double> throughput;       ///< benchmark/tput extra -> value
};

RunView diff_view(const Value& doc, const std::string& path) {
  const Instruments ins = digest(doc);
  if (!ins.present) fail_input(path + " has no instruments array");
  RunView view;
  if (ins.latency) {
    view.p99_s = quantile(*ins.latency, 0.99);
    view.have_p99 = true;
  }
  if (ins.completed > 0.0) {
    for (const auto& [stage, s] : ins.stage_seconds) {
      view.stage_per_req_s[stage] = s / ins.completed;
    }
  }
  for (const auto& [alert, a] : ins.alerts) view.alerts_fired[alert] = a.fired;
  if (const Value* benches = doc.find("benchmarks"); benches != nullptr && benches->is_array()) {
    for (const Value& b : benches->array) {
      const std::string name = b.str_or("name", "");
      if (name.empty()) continue;
      for (const auto& [k, v] : b.object) {
        // Any "tput_*" extra is a throughput; keyed by benchmark so sweeps
        // with several rows stay aligned row-by-row.
        if (k.starts_with("tput") && v.is_number()) view.throughput[name + '/' + k] = v.number;
      }
    }
  }
  return view;
}

double pct(double base, double cand) {
  return base != 0.0 ? 100.0 * (cand - base) / base : 0.0;
}

// Differential run attribution: aligns two exports (same-seed baseline vs
// candidate, or fault-free vs faulted), computes the throughput and p99
// deltas, and attributes the shift to the stage whose per-request seconds
// (serving_stage_seconds_total / completed) moved the most. Alert counts are
// diffed alongside. The gate is one-sided: a p99 increase, a throughput
// decrease, or a per-stage per-request increase larger than --tolerance
// (stages normalized by the baseline's total per-request seconds, so
// microscopic stages cannot trip it) exits 1. Identical exports exit 0.
int run_diff(const Command& cmd, int argc, char** argv) {
  double tolerance = 0.05;
  const auto files = parse_args(cmd, argc, argv, {{"--tolerance", tolerance}});
  const Value base_doc = load_telemetry(files[0]);
  const Value cand_doc = load_telemetry(files[1]);
  const RunView base = diff_view(base_doc, files[0]);
  const RunView cand = diff_view(cand_doc, files[1]);

  std::printf("servescope diff: base=%s candidate=%s tolerance=%.1f%%\n", files[0].c_str(),
              files[1].c_str(), 100.0 * tolerance);

  std::vector<std::string> regressions;

  // Throughput rows shared by both exports; a decrease past tolerance trips.
  for (const auto& [key, base_v] : base.throughput) {
    const auto it = cand.throughput.find(key);
    if (it == cand.throughput.end()) continue;
    const double delta_pct = pct(base_v, it->second);
    std::printf("  throughput %-40s %12.2f -> %12.2f  (%+.2f%%)\n", key.c_str(), base_v,
                it->second, delta_pct);
    if (base_v > 0.0 && (base_v - it->second) / base_v > tolerance) {
      char line[160];
      std::snprintf(line, sizeof line, "throughput %s %+.2f%%", key.c_str(), delta_pct);
      regressions.emplace_back(line);
    }
  }

  if (base.have_p99 && cand.have_p99) {
    const double delta_pct = pct(base.p99_s, cand.p99_s);
    std::printf("  p99 latency %38.2f -> %12.2f ms (%+.2f%%)\n", 1e3 * base.p99_s,
                1e3 * cand.p99_s, delta_pct);
    if (base.p99_s > 0.0 && (cand.p99_s - base.p99_s) / base.p99_s > tolerance) {
      char line[96];
      std::snprintf(line, sizeof line, "p99 latency %+.2f%%", delta_pct);
      regressions.emplace_back(line);
    }
  }

  // Per-stage attribution: rank stages by the absolute shift in per-request
  // seconds; the top stage is where the p99/throughput delta lives.
  double base_total_per_req = 0.0;
  for (const auto& [stage, s] : base.stage_per_req_s) base_total_per_req += s;
  struct StageDelta {
    std::string stage;
    double base_s = 0.0;
    double cand_s = 0.0;
    double delta_s = 0.0;
  };
  std::vector<StageDelta> stage_deltas;
  double total_shift = 0.0;
  for (const auto& [stage, base_s] : base.stage_per_req_s) {
    const auto it = cand.stage_per_req_s.find(stage);
    const double cand_s = it != cand.stage_per_req_s.end() ? it->second : 0.0;
    stage_deltas.push_back({stage, base_s, cand_s, cand_s - base_s});
    total_shift += std::abs(cand_s - base_s);
  }
  for (const auto& [stage, cand_s] : cand.stage_per_req_s) {
    if (base.stage_per_req_s.count(stage) == 0) {
      stage_deltas.push_back({stage, 0.0, cand_s, cand_s});
      total_shift += std::abs(cand_s);
    }
  }
  std::sort(stage_deltas.begin(), stage_deltas.end(), [](const auto& a, const auto& b) {
    const double da = std::abs(a.delta_s), db = std::abs(b.delta_s);
    if (da != db) return da > db;
    return a.stage < b.stage;  // deterministic tie-break
  });
  if (!stage_deltas.empty()) {
    std::printf("  per-stage per-request time (ms/req):\n");
    std::printf("    %-16s %10s %10s %10s %8s\n", "stage", "base", "cand", "delta", "share");
    for (const auto& d : stage_deltas) {
      const double share = total_shift > 0.0 ? 100.0 * std::abs(d.delta_s) / total_shift : 0.0;
      std::printf("    %-16s %10.3f %10.3f %+10.3f %7.1f%%\n", d.stage.c_str(), 1e3 * d.base_s,
                  1e3 * d.cand_s, 1e3 * d.delta_s, share);
      // Gate on growth relative to the baseline's total per-request budget.
      if (base_total_per_req > 0.0 && d.delta_s / base_total_per_req > tolerance) {
        char line[128];
        std::snprintf(line, sizeof line, "stage '%s' +%.3f ms/req", d.stage.c_str(),
                      1e3 * d.delta_s);
        regressions.emplace_back(line);
      }
    }
    // Attribution names the top *service* stage: queue growth is the symptom
    // of a bottleneck elsewhere, so it is reported but never blamed.
    const auto top = std::find_if(stage_deltas.begin(), stage_deltas.end(),
                                  [](const StageDelta& d) { return d.stage != "queue"; });
    if (top != stage_deltas.end() && std::abs(top->delta_s) > 0.0 && total_shift > 0.0) {
      std::printf("  attribution: shift driven by stage '%s' (%+.3f ms/req, %.1f%% of stage "
                  "shift)\n",
                  top->stage.c_str(), 1e3 * top->delta_s,
                  100.0 * std::abs(top->delta_s) / total_shift);
      if (stage_deltas.front().stage == "queue" && stage_deltas.front().delta_s > 0.0) {
        std::printf("  (queueing grew %+.3f ms/req — the symptom of the bottleneck above)\n",
                    1e3 * stage_deltas.front().delta_s);
      }
    }
  }

  // Alert-count diffs (informational, never gated): name what fired.
  for (const auto& [alert, cand_n] : cand.alerts_fired) {
    const auto it = base.alerts_fired.find(alert);
    const double base_n = it != base.alerts_fired.end() ? it->second : 0.0;
    if (cand_n != base_n) {
      std::printf("  alerts: '%s' fired %.0f time(s) (base %.0f)\n", alert.c_str(), cand_n,
                  base_n);
    }
  }

  if (regressions.empty()) {
    std::printf("OK: candidate within %.1f%% of baseline\n", 100.0 * tolerance);
    return 0;
  }
  for (const auto& r : regressions) std::printf("REGRESSION: %s\n", r.c_str());
  return 1;
}

// --- traces ----------------------------------------------------------------------

/// Exported timestamps are microseconds chosen to round-trip (to_chars), so
/// multiplying back recovers the exact integer nanosecond. Hostile values are
/// clamped to +-1e15 us (~31 years) so `ts + dur` cannot overflow.
Time to_ns(double us) {
  return static_cast<Time>(std::llround(std::clamp(us, -1e15, 1e15) * 1000.0));
}

bool parse_u64(const Value& obj, std::string_view key, std::uint64_t& out) {
  const Value* v = obj.find(key);
  if (v == nullptr || !v->is_string()) return false;
  char* end = nullptr;
  out = std::strtoull(v->str.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && !v->str.empty();
}

/// Full-population stage means published by RequestAuditor::finalize().
struct AuditBreakdown {
  std::uint64_t count = 0;
  std::map<std::string, double> stage_mean_s;  ///< stage name -> mean seconds
};

struct ParsedTrace {
  std::vector<SpanRecord> spans;
  std::map<std::uint64_t, std::string> trace_run;  ///< trace id -> run label
  std::map<std::string, AuditBreakdown> audits;    ///< run label -> breakdown
  std::size_t events = 0;
};

constexpr std::string_view kDefaultRun = "(default)";

ParsedTrace parse_trace(const Value& doc, const std::string& path) {
  const Value* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    fail_input(path + " is not a Chrome trace (no traceEvents array)");
  }

  // First pass: thread_name metadata gives tid -> track.
  std::map<double, std::string> tracks;
  for (const Value& e : events->array) {
    if (e.str_or("ph", "") == "M" && e.str_or("name", "") == "thread_name") {
      if (const Value* args = e.find("args")) {
        tracks[e.num_or("tid", 0)] = args->str_or("name", "");
      }
    }
  }

  ParsedTrace out;
  for (const Value& e : events->array) {
    if (!e.is_object()) continue;
    ++out.events;
    const std::string ph = e.str_or("ph", "");
    const Value* args = e.find("args");
    if (ph == "i" && e.str_or("name", "") == "audit.breakdown" && args != nullptr) {
      AuditBreakdown ab;
      ab.count = std::strtoull(args->str_or("count", "0").c_str(), nullptr, 10);
      for (const auto& [k, v] : args->object) {
        if (k.starts_with("stage_") && v.is_string()) {
          ab.stage_mean_s[k.substr(6)] = std::strtod(v.str.c_str(), nullptr);
        }
      }
      out.audits[args->str_or("run", std::string(kDefaultRun))] = std::move(ab);
      continue;
    }
    if (ph != "X" || args == nullptr) continue;
    SpanRecord s;
    if (!parse_u64(*args, "trace_id", s.trace_id) || !parse_u64(*args, "span_id", s.span_id)) {
      continue;  // an untraced span (device counters, fault windows, ...)
    }
    parse_u64(*args, "parent_span_id", s.parent_span_id);
    s.name = e.str_or("name", "");
    s.track = tracks[e.num_or("tid", 0)];
    s.blame = args->str_or("blame", "");
    s.begin = to_ns(e.num_or("ts", 0.0));
    s.end = s.begin + to_ns(e.num_or("dur", 0.0));
    if (s.parent_span_id == 0) {
      out.trace_run[s.trace_id] = args->str_or("run", std::string(kDefaultRun));
    }
    out.spans.push_back(std::move(s));
  }
  return out;
}

double ms(Time t) { return serve::sim::to_seconds(t) * 1e3; }

/// Per-run aggregation of critical-path attributions.
struct RunShares {
  std::map<std::string, Time> by_name;
  Time total = 0;
  std::size_t traces = 0;
};

bool is_metrics_stage(const std::string& name) {
  for (std::size_t i = 0; i < serve::metrics::kStageCount; ++i) {
    if (name == serve::metrics::stage_name(static_cast<serve::metrics::Stage>(i))) return true;
  }
  return false;
}

// Critical-path analysis of a causal trace export (bench --trace-out):
// rebuilds the span trees from the trace_id/span_id/parent_span_id args and
// reports a summary (events, traces, orphans), per-run critical-path stage
// shares, the --top slowest traces with their blame chains, and a
// cross-check of the sampled stage shares against the RequestAuditor's
// full-population "audit.breakdown" record within --tolerance. Exits 1 on
// orphaned spans, missing causal data, or a share mismatch.
int run_traces(const Command& cmd, int argc, char** argv) {
  double top = 5;
  double tolerance = 0.01;  // max |share delta| vs the auditor breakdown
  const std::string path =
      parse_args(cmd, argc, argv, {{"--top", top}, {"--tolerance", tolerance}}).front();
  if (!(top >= 0)) usage_error(cmd, "--top must be >= 0");
  const ParsedTrace parsed = parse_trace(load_json(path), path);

  const std::vector<CriticalPath> paths = serve::trace::extract_critical_paths(parsed.spans);
  std::size_t orphans = 0;
  std::size_t rootless = 0;
  for (const CriticalPath& p : paths) {
    orphans += p.orphan_count;
    if (p.root == nullptr) ++rootless;
  }

  std::printf("trace: %s\n  events %zu, causal spans %zu, traces %zu, orphaned spans %zu, "
              "rootless traces %zu\n",
              path.c_str(), parsed.events, parsed.spans.size(), paths.size(), orphans, rootless);

  bool ok = true;
  if (parsed.spans.empty()) {
    std::printf("FAIL: no causal spans (was the run traced with a causal tracer?)\n");
    ok = false;
  }
  if (orphans > 0 || rootless > 0) {
    std::printf("FAIL: %zu orphaned span(s) and %zu rootless trace(s) — parent links must "
                "resolve across every hop\n",
                orphans, rootless);
    ok = false;
  }

  // --- per-run critical-path stage shares -------------------------------------
  std::map<std::string, RunShares> runs;
  const auto run_of = [&parsed](const CriticalPath& p) {
    const auto it = parsed.trace_run.find(p.root->trace_id);
    return it != parsed.trace_run.end() ? it->second : std::string(kDefaultRun);
  };
  for (const CriticalPath& p : paths) {
    if (p.root == nullptr) continue;
    RunShares& rs = runs[run_of(p)];
    ++rs.traces;
    rs.total += p.total;
    for (const auto& [name, t] : p.by_name) rs.by_name[name] += t;
  }
  for (const auto& [run, rs] : runs) {
    std::printf("\ncritical path [%s] — %zu trace(s), %.3f ms total\n", run.c_str(), rs.traces,
                ms(rs.total));
    std::vector<std::pair<std::string, Time>> rows{rs.by_name.begin(), rs.by_name.end()};
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (const auto& [name, t] : rows) {
      const double share =
          rs.total > 0 ? static_cast<double>(t) / static_cast<double>(rs.total) : 0.0;
      std::printf("  %5.1f%%  %.3f ms  %s\n", 100.0 * share, ms(t), name.c_str());
    }
  }

  // --- top-k slowest traces with blame chains ---------------------------------
  std::vector<const CriticalPath*> slowest;
  for (const CriticalPath& p : paths) {
    if (p.root != nullptr) slowest.push_back(&p);
  }
  std::sort(slowest.begin(), slowest.end(),
            [](const CriticalPath* a, const CriticalPath* b) { return a->total > b->total; });
  if (static_cast<double>(slowest.size()) > top) slowest.resize(static_cast<std::size_t>(top));
  if (!slowest.empty()) std::printf("\nslowest traces:\n");
  for (const CriticalPath* p : slowest) {
    const std::string run = run_of(*p);
    std::printf("  trace %llu [%s%s%s] %.3f ms\n",
                static_cast<unsigned long long>(p->root->trace_id), p->root->name.c_str(),
                run != kDefaultRun ? ", " : "", run != kDefaultRun ? run.c_str() : "",
                ms(p->total));
    for (const serve::trace::PathStep& step : p->steps) {
      if (step.attributed <= 0) continue;
      std::printf("    %.3f ms  %s%s%s\n", ms(step.attributed), step.span->name.c_str(),
                  step.span->blame.empty() ? "" : "  <- ", step.span->blame.c_str());
    }
  }

  // --- cross-check vs the auditor's full-population breakdown -----------------
  // Both sides are normalized over the metrics stage names they actually
  // observed, so the comparison is share-vs-share: the sampled critical
  // paths must allocate stage time in the same proportions the exhaustive
  // per-request accounting did.
  for (const auto& [run, audit] : parsed.audits) {
    const auto run_it = runs.find(run);
    if (run_it == runs.end()) {
      std::printf("\nFAIL [%s]: auditor breakdown present but no sampled traces\n", run.c_str());
      ok = false;
      continue;
    }
    double audit_sum = 0.0;
    for (const auto& [name, mean_s] : audit.stage_mean_s) audit_sum += mean_s;
    double cp_sum = 0.0;
    for (const auto& [name, t] : run_it->second.by_name) {
      if (is_metrics_stage(name)) cp_sum += serve::sim::to_seconds(t);
    }
    std::printf("\ncross-check [%s] vs audit.breakdown (%llu requests, tolerance %g):\n",
                run.c_str(), static_cast<unsigned long long>(audit.count), tolerance);
    if (audit_sum <= 0.0 || cp_sum <= 0.0) {
      std::printf("  FAIL: empty stage accounting on one side\n");
      ok = false;
      continue;
    }
    for (const auto& [name, mean_s] : audit.stage_mean_s) {
      const double audit_share = mean_s / audit_sum;
      const auto cp_it = run_it->second.by_name.find(name);
      const double cp_share =
          cp_it != run_it->second.by_name.end() ? serve::sim::to_seconds(cp_it->second) / cp_sum
                                                : 0.0;
      const double delta = cp_share - audit_share;
      const bool pass = std::abs(delta) <= tolerance;
      std::printf("  %s  %s: critical-path %5.1f%% vs audit %5.1f%% (delta %5.1f%%)\n",
                  pass ? "ok  " : "FAIL", name.c_str(), 100.0 * cp_share, 100.0 * audit_share,
                  100.0 * delta);
      if (!pass) ok = false;
    }
  }

  std::printf("\n%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

// --- bench-check -----------------------------------------------------------------

/// Absolute slack on `*allocs_per_req` ceilings (covers float rounding of
/// per-request averages, not real extra allocations).
constexpr double kAllocSlack = 0.01;

struct Bench {
  double real_time_ns = 0.0;
  std::map<std::string, double> alloc_ceilings;  ///< `*allocs_per_req` counters
  std::map<std::string, double> rates;           ///< higher-is-better counters
};

/// Counters where higher is better: `*/s` and `*_per_second` rates, and the
/// sim frame pool's hit rate.
bool is_rate_counter(std::string_view name) {
  return name.ends_with("/s") || name.ends_with("_per_second") || name == "pool_hit_rate";
}

double unit_to_ns(const std::string& unit) {
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;
}

/// The "benchmarks" rows by name. Under --benchmark_repetitions a
/// benchmark's median aggregate stands for it (keyed by its run_name); the
/// other aggregates (mean, stddev, cv) are skipped, and so are rows without
/// a name or a numeric real_time.
std::map<std::string, Bench> benchmarks_of(const Value& doc) {
  std::map<std::string, Bench> out;
  std::set<std::string> medians;  ///< benchmarks read from a median aggregate
  const Value* rows = doc.find("benchmarks");
  if (rows == nullptr || !rows->is_array()) return out;
  for (const Value& r : rows->array) {
    std::string name = r.str_or("name", "");
    const Value* real_time = r.find("real_time");
    if (name.empty() || real_time == nullptr || !real_time->is_number()) continue;
    if (r.str_or("run_type", "") == "aggregate") {
      if (r.str_or("aggregate_name", "") != "median") continue;
      name = r.str_or("run_name", name);
      medians.insert(name);
    } else if (medians.contains(name)) {
      continue;
    }
    Bench b;
    b.real_time_ns = real_time->number * unit_to_ns(r.str_or("time_unit", "ns"));
    for (const auto& [k, v] : r.object) {
      if (!v.is_number()) continue;
      if (k.ends_with("allocs_per_req")) b.alloc_ceilings[k] = v.number;
      if (is_rate_counter(k)) b.rates[k] = v.number;
    }
    out[name] = std::move(b);
  }
  return out;
}

/// The context's build type; "" if absent. "build_type" is the app-level
/// marker (Reporter exports set it; the google-benchmark mains inject it via
/// AddCustomContext) and wins over google-benchmark's "library_build_type",
/// which reflects how the *system benchmark library* was compiled, not the
/// code under test.
std::string build_type_of(const Value& doc) {
  const Value* ctx = doc.find("context");
  if (ctx == nullptr) return {};
  for (const char* key : {"build_type", "library_build_type"}) {
    if (const Value* v = ctx->find(key); v != nullptr && v->is_string()) return v->str;
  }
  return {};
}

/// Debug-build numbers in either file make the comparison meaningless (a
/// debug baseline hides every regression; a debug candidate fails falsely).
/// Returns false when `role` should fail the check.
bool check_build_type(const char* role, const std::string& path, const std::string& bt,
                      bool allow_debug) {
  if (bt.empty()) {
    std::fprintf(stderr,
                 "servescope bench-check: WARN: %s %s has no build-type context; re-record it "
                 "with a current Release build\n",
                 role, path.c_str());
    return true;
  }
  if (bt != "release" && !allow_debug) {
    std::fprintf(stderr,
                 "servescope bench-check: %s %s was recorded from a '%s' build; benchmark "
                 "gating requires Release numbers (pass --allow-debug to override)\n",
                 role, path.c_str(), bt.c_str());
    return false;
  }
  if (bt != "release") {
    std::fprintf(stderr, "servescope bench-check: WARN: %s %s is a '%s' build (allowed by flag)\n",
                 role, path.c_str(), bt.c_str());
  }
  return true;
}

// Compares two google-benchmark-compatible JSON files (median aggregates
// when the runs were repeated). A benchmark regresses when its current
// real_time exceeds the baseline by more than --tolerance (default 30%:
// deliberately generous, since CI machines are noisy and the gate is meant
// to catch order-of-magnitude mistakes such as an accidentally disabled fast
// path), or when a rate counter falls by the same factor (baseline / current
// - 1 over the tolerance). Counters named `*allocs_per_req` are hard
// ceilings instead: allocation counts do not jitter, so one exceeding its
// baseline by more than kAllocSlack fails whatever the tolerance.
// A baseline benchmark or gated counter missing from the current run fails
// too, so a renamed or deleted benchmark cannot drop out of the gate
// unnoticed; one that only the current run has is noted and passes.
int run_bench_check(const Command& cmd, int argc, char** argv) {
  double tolerance = 0.30;
  bool allow_debug = false;
  const auto files = parse_args(cmd, argc, argv,
                                {{"--tolerance", tolerance}, {"--allow-debug", allow_debug}});
  const Value base_doc = load_json(files[0], true);
  const Value cur_doc = load_json(files[1], true);
  const auto baseline = benchmarks_of(base_doc);
  const auto current = benchmarks_of(cur_doc);
  if (baseline.empty()) fail_input("no benchmarks in " + files[0]);
  if (current.empty()) fail_input("no benchmarks in " + files[1]);

  bool builds_ok = true;
  builds_ok &= check_build_type("baseline", files[0], build_type_of(base_doc), allow_debug);
  builds_ok &= check_build_type("candidate", files[1], build_type_of(cur_doc), allow_debug);
  if (!builds_ok) return 1;

  int regressions = 0;
  const auto missing = [&regressions](const std::string& row_name) {
    std::printf("%-44s %12s %12s %8s  REGRESSION: missing from current run\n", row_name.c_str(),
                "-", "-", "-");
    ++regressions;
  };
  std::printf("%-44s %12s %12s %8s\n", "benchmark", "baseline", "current", "delta");
  for (const auto& [name, base] : baseline) {
    const auto it = current.find(name);
    if (it == current.end()) {
      missing(name);
      continue;
    }
    for (const auto& [counter, ceiling] : base.alloc_ceilings) {
      const std::string row_name = name + "/" + counter;
      const auto cur = it->second.alloc_ceilings.find(counter);
      if (cur == it->second.alloc_ceilings.end()) {
        missing(row_name);
        continue;
      }
      const bool bad = cur->second > ceiling + kAllocSlack;
      std::printf("%-44s %12.4f %12.4f %8s%s\n", row_name.c_str(), ceiling, cur->second,
                  "ceiling", bad ? "  REGRESSION" : "");
      if (bad) ++regressions;
    }
    for (const auto& [counter, base_rate] : base.rates) {
      const std::string row_name = name + "/" + counter;
      const auto cur = it->second.rates.find(counter);
      if (cur == it->second.rates.end()) {
        missing(row_name);
        continue;
      }
      if (base_rate <= 0.0) continue;
      const double slowdown = cur->second > 0.0 ? base_rate / cur->second - 1.0 : INFINITY;
      const bool bad = slowdown > tolerance;
      std::printf("%-44s %12.4g %12.4g %+7.1f%%%s\n", row_name.c_str(), base_rate, cur->second,
                  (cur->second / base_rate - 1.0) * 100.0, bad ? "  REGRESSION" : "");
      if (bad) ++regressions;
    }
    const double base_ns = base.real_time_ns;
    const double cur_ns = it->second.real_time_ns;
    if (base_ns <= 0.0) continue;
    const double delta = cur_ns / base_ns - 1.0;
    const bool bad = delta > tolerance;
    std::printf("%-44s %10.0fns %10.0fns %+7.1f%%%s\n", name.c_str(), base_ns, cur_ns,
                delta * 100.0, bad ? "  REGRESSION" : "");
    if (bad) ++regressions;
  }
  for (const auto& [name, cur] : current) {
    if (!baseline.contains(name)) {
      std::printf("%-44s %12s %12s %8s  WARN: new benchmark (no baseline)\n", name.c_str(), "-",
                  "-", "-");
    }
  }
  if (regressions > 0) {
    std::fprintf(stderr,
                 "servescope bench-check: %d regression(s): real_time or a rate counter past the "
                 "%.0f%% tolerance, an allocs_per_req counter over its ceiling, or a baseline "
                 "row missing from the current run\n",
                 regressions, tolerance * 100.0);
    return 1;
  }
  std::printf("servescope bench-check: OK (tolerance %.0f%%)\n", tolerance * 100.0);
  return 0;
}

constexpr Command kCommands[] = {
    {"report", "telemetry.json [--slo <seconds>] [--slo-target <0..1>]", 1, run_report},
    {"capacity", "telemetry.json", 1, run_capacity},
    {"diff", "base.json candidate.json [--tolerance <frac>]", 2, run_diff},
    {"traces", "trace.json [--top <n>] [--tolerance <frac>]", 1, run_traces},
    {"bench-check", "baseline.json current.json [--tolerance <frac>] [--allow-debug]", 2,
     run_bench_check},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string_view sub = argc > 1 ? argv[1] : "";
  for (const Command& cmd : kCommands) {
    if (cmd.name == sub) return cmd.run(cmd, argc - 2, argv + 2);
  }
  const bool help = sub == "--help" || sub == "-h";
  if (!help && !sub.empty()) std::fprintf(stderr, "servescope: unknown subcommand '%s'\n", argv[1]);
  std::FILE* out = help ? stdout : stderr;
  std::fprintf(out, "usage: servescope <subcommand> [args]\n");
  for (const Command& cmd : kCommands) {
    std::fprintf(out, "  servescope %-12s %s\n", cmd.name.data(), cmd.synopsis.data());
  }
  return help ? 0 : 2;
}
