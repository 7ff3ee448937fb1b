// Shared helpers for the figure-reproduction bench binaries.
//
// Every bench prints (1) the regenerated table/series for its figure,
// (2) the paper's reported values next to measured ones, and (3) shape
// checks: the qualitative claims (who wins, approximate factors, crossover
// points) that the reproduction is expected to preserve.
//
// Reporter is the one emit path all harnesses share: it renders the same
// banner/table/check output the benches have always printed, and mirrors
// everything into a metrics::TelemetryExport so any bench can additionally
// write machine-readable JSON (bench-check-compatible), CSV, or Prometheus
// text via the common --json-out/--csv-out/--prom-out flags. For a harness
// it also owns the audit verdict and the one trace that --trace-out writes.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "metrics/export.h"
#include "metrics/table.h"

namespace serve::bench {

inline void print_banner(const std::string& figure, const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), title.c_str());
  std::printf("============================================================\n");
}

struct ShapeCheck {
  std::string claim;    ///< the paper's qualitative statement
  bool pass;
  std::string detail;   ///< measured numbers backing the verdict
};

/// Prints the shape checks; returns the number of failures.
inline int print_checks(const std::vector<ShapeCheck>& checks) {
  int failures = 0;
  std::printf("\nShape checks vs paper:\n");
  for (const auto& c : checks) {
    std::printf("  [%s] %s (%s)\n", c.pass ? "PASS" : "DEVIATION", c.claim.c_str(),
                c.detail.c_str());
    failures += c.pass ? 0 : 1;
  }
  std::printf("%d/%zu shape checks passed\n", static_cast<int>(checks.size()) - failures,
              checks.size());
  return failures;
}

inline void print_table(const metrics::Table& table) {
  table.print(std::cout);
  std::cout.flush();
}

/// One bench run's console + file output, accumulated as the harness goes.
///
/// Exit-code contract (unchanged from the hand-rolled printers): shape-check
/// deviations are *reported*, not fatal — finish() returns non-zero only for
/// audit violations or an output file that could not be written. CI gates on
/// the checks it cares about explicitly.
class Reporter {
 public:
  Reporter(std::string figure, std::string title) {
    print_banner(figure, title);
    export_.set_context("figure", std::move(figure));
    export_.set_context("title", std::move(title));
    // Recorded so `servescope bench-check` can refuse debug-build baselines: a
    // debug number sneaking into a committed BENCH_*.json makes every later
    // Release run look like a huge improvement and masks real regressions.
#ifdef NDEBUG
    export_.set_context("build_type", "release");
#else
    export_.set_context("build_type", "debug");
#endif
  }

  /// Removes --json-out/--csv-out/--prom-out (each takes a path) from an
  /// argv-style list, recording the paths; returns the remaining arguments
  /// (argv[0] first) for a downstream parser. Throws std::invalid_argument
  /// on a flag with a missing path.
  std::vector<const char*> strip_output_flags(int argc, const char* const* argv) {
    std::vector<const char*> rest;
    if (argc > 0) rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      std::string* sink = nullptr;
      if (arg == "--json-out") sink = &json_out_;
      else if (arg == "--csv-out") sink = &csv_out_;
      else if (arg == "--prom-out") sink = &prom_out_;
      if (sink == nullptr) {
        rest.push_back(argv[i]);
        continue;
      }
      if (i + 1 >= argc) {
        throw std::invalid_argument(std::string(arg) + " requires a file path");
      }
      *sink = argv[++i];
    }
    return rest;
  }

  /// One-call CLI front door: strips the output flags, then — for a harness
  /// — parses --audit, --trace-out <path> and --trace-max-events <n>,
  /// otherwise rejects any leftover argument. Returns false after printing
  /// the error to stderr; callers `return 2`.
  [[nodiscard]] bool parse_cli(int argc, const char* const* argv, bool harness = false) {
    try {
      const auto rest = strip_output_flags(argc, argv);
      for (std::size_t i = 1; i < rest.size(); ++i) {
        const std::string_view arg = rest[i];
        if (harness && arg == "--audit") {
          audit_ = true;
        } else if (harness && arg == "--trace-out") {
          if (i + 1 >= rest.size()) throw std::invalid_argument("--trace-out requires a file path");
          trace_out_ = rest[++i];
        } else if (harness && arg == "--trace-max-events") {
          if (i + 1 >= rest.size()) {
            throw std::invalid_argument("--trace-max-events requires a count");
          }
          trace_max_events_ = parse_count(rest[++i]);
        } else {
          throw std::invalid_argument(
              "unknown flag '" + std::string(arg) + "' (supported: " +
              (harness ? "--audit, --trace-out <path>, --trace-max-events <n>"
                       : "--json-out/--csv-out/--prom-out <path>") +
              ")");
        }
      }
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return false;
    }
    if (tracing()) {
      session_.emplace(core::Session::kTracer,
                       core::SessionOptions{.trace_max_events = trace_max_events_});
    }
    return true;
  }

  /// --audit, or implied by --trace-out (the spans come from the auditor).
  [[nodiscard]] bool auditing() const noexcept { return audit_ || tracing(); }
  [[nodiscard]] bool tracing() const noexcept { return !trace_out_.empty(); }
  /// The --trace-max-events cap (0 = TraceRecorder default), for a run that
  /// keeps its own trace.
  [[nodiscard]] std::size_t trace_max_events() const noexcept { return trace_max_events_; }
  /// The harness-wide causal tracer (recording into the harness trace), or
  /// null when not tracing.
  [[nodiscard]] trace::CausalTracer* tracer() const {
    return session_ ? &session_->tracer() : nullptr;
  }

  /// Turns on `server.audit` when auditing and, when tracing, points
  /// `observers.trace` at the harness trace — plus `observers.tracer` at the
  /// harness tracer when `causal`, turning the flat per-request spans into
  /// causal traces. Call once per ExperimentSpec or FleetSpec.
  void observe(serving::ServerConfig& server, core::Observers& observers,
               bool causal = false) const {
    if (auditing()) server.audit = true;
    if (!session_) return;
    observers.trace = &session_->trace();
    if (causal) observers.tracer = &session_->tracer();
  }

  /// Adds a run's audit verdict to the harness total, printing its report to
  /// stderr (labelled) when it has violations.
  void audit(const core::AuditVerdict& r, const std::string& label) {
    if (r.audit_violations == 0) return;
    std::cerr << "AUDIT FAILED [" << label << "]: " << r.audit_violations << " violation(s)\n";
    for (const auto& line : r.audit_report) std::cerr << "  " << line << "\n";
    violations_ += r.audit_violations;
  }
  [[nodiscard]] std::uint64_t violations() const noexcept { return violations_; }

  void context(std::string key, std::string value) {
    export_.set_context(std::move(key), std::move(value));
  }

  /// Prints the table and records it in the JSON export.
  void table(std::string name, const metrics::Table& t) {
    print_table(t);
    export_.add_table(std::move(name), t);
  }
  void table(const metrics::Table& t) { table("table" + std::to_string(++unnamed_tables_), t); }

  /// Records a google-benchmark-style row (JSON-only; the figure tables
  /// remain the human-facing output).
  void benchmark(std::string name, double real_time_ms,
                 std::vector<std::pair<std::string, double>> extras = {}) {
    export_.add_benchmark({std::move(name), real_time_ms, "ms", std::move(extras)});
  }

  void check(std::string claim, bool pass, std::string detail) {
    checks_.push_back({std::move(claim), pass, std::move(detail)});
    export_.add_check({checks_.back().claim, pass, checks_.back().detail});
  }

  /// Bulk form for harnesses that build their check list up front.
  void checks(std::vector<ShapeCheck> cs) {
    for (auto& c : cs) check(std::move(c.claim), c.pass, std::move(c.detail));
  }

  [[nodiscard]] metrics::TelemetryExport& exporter() noexcept { return export_; }
  [[nodiscard]] std::size_t failed_checks() const noexcept {
    return export_.failed_checks();
  }

  /// Writes `path` through `fn`, flushed and checked. A failure is reported
  /// on stderr as "error: cannot write <kind> output <path>" and makes
  /// finish() return 1; the run goes on.
  template <typename WriteFn>
  bool write_file(const std::string& path, const char* kind, WriteFn&& fn) {
    std::ofstream out{path};
    if (out) fn(out);
    out.flush();  // the last buffered bytes can still fail (e.g. a full disk)
    if (out) return true;
    std::fprintf(stderr, "error: cannot write %s output %s\n", kind, path.c_str());
    io_ok_ = false;
    return false;
  }

  /// Writes the trace (`trace`, else the harness trace) when tracing and
  /// prints the audit verdict when auditing; then prints the accumulated
  /// shape checks and writes any requested export files. Returns the process
  /// exit code: 0 iff no audit violations and every output was written.
  [[nodiscard]] int finish(const sim::TraceRecorder* trace = nullptr) {
    if (tracing()) write_trace(trace != nullptr ? *trace : session_->trace());
    if (auditing()) {
      std::cerr << "# audit: "
                << (violations_ == 0 ? "clean (conservation, hygiene, monotonicity all hold)"
                                     : std::to_string(violations_) + " violation(s)")
                << "\n";
    }
    print_checks(checks_);
    write_export(json_out_, [this](std::ostream& o) { export_.write_json(o); });
    write_export(csv_out_, [this](std::ostream& o) { export_.write_csv(o); });
    write_export(prom_out_, [this](std::ostream& o) { export_.write_prometheus(o); });
    return io_ok_ && violations_ == 0 ? 0 : 1;
  }

 private:
  static std::size_t parse_count(const std::string& v) {
    std::size_t pos = 0;
    unsigned long long n = 0;
    try {
      n = std::stoull(v, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos != v.size() || n == 0) {
      throw std::invalid_argument("--trace-max-events needs a positive integer, got '" + v + "'");
    }
    return static_cast<std::size_t>(n);
  }

  template <typename WriteFn>
  void write_export(const std::string& path, WriteFn&& fn) {
    if (!path.empty() && write_file(path, "telemetry", fn)) {
      std::fprintf(stderr, "# telemetry: wrote %s\n", path.c_str());
    }
  }

  void write_trace(const sim::TraceRecorder& trace) {
    if (!write_file(trace_out_, "trace", [&](std::ostream& o) { trace.write_chrome_json(o); })) {
      return;
    }
    std::cerr << "# trace: " << trace_out_ << " (" << trace.span_count() << " spans, "
              << trace.counter_count() << " counter samples, " << trace.memory_bytes() / 1024
              << " KiB held";
    if (trace.dropped_events() > 0) {
      std::cerr << ", " << trace.dropped_events() << " events dropped at the "
                << trace.max_events() << "-event cap";
    }
    std::cerr << ")\n";
  }

  metrics::TelemetryExport export_;
  std::vector<ShapeCheck> checks_;
  std::string json_out_, csv_out_, prom_out_;
  int unnamed_tables_ = 0;
  bool audit_ = false;
  std::string trace_out_;
  std::size_t trace_max_events_ = 0;
  std::optional<core::Session> session_;  ///< the harness trace and tracer, when tracing
  std::uint64_t violations_ = 0;
  bool io_ok_ = true;
};

}  // namespace serve::bench
