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
// write machine-readable JSON (bench_check-compatible), CSV, or Prometheus
// text via the common --json-out/--csv-out/--prom-out flags.
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
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
/// a failed harness (audit violations, unwritable trace) or an unwritable
/// export path. CI gates on the checks it cares about explicitly.
class Reporter {
 public:
  Reporter(std::string figure, std::string title) {
    print_banner(figure, title);
    export_.set_context("figure", std::move(figure));
    export_.set_context("title", std::move(title));
    // Recorded so tools/bench_check can refuse debug-build baselines: a
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

  /// One-call CLI front door: strips the output flags, then — when `harness`
  /// is non-null — parses --audit/--trace-out into it, otherwise rejects any
  /// leftover argument. Returns false after printing the error to stderr;
  /// callers `return 2`.
  [[nodiscard]] bool parse_cli(int argc, const char* const* argv,
                               core::HarnessOptions* harness = nullptr) {
    try {
      const auto rest = strip_output_flags(argc, argv);
      if (harness != nullptr) {
        *harness = core::parse_harness_options(static_cast<int>(rest.size()), rest.data());
      } else if (rest.size() > 1) {
        throw std::invalid_argument(
            "unknown flag '" + std::string(rest[1]) +
            "' (supported: --json-out/--csv-out/--prom-out <path>)");
      }
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return false;
    }
    return true;
  }

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

  /// Prints the accumulated shape checks, writes any requested export files,
  /// and returns the process exit code (0 iff `harness_ok` and every export
  /// path was writable).
  [[nodiscard]] int finish(bool harness_ok = true) {
    print_checks(checks_);
    bool io_ok = true;
    io_ok &= write_file(json_out_, [this](std::ostream& o) { export_.write_json(o); });
    io_ok &= write_file(csv_out_, [this](std::ostream& o) { export_.write_csv(o); });
    io_ok &= write_file(prom_out_, [this](std::ostream& o) { export_.write_prometheus(o); });
    return harness_ok && io_ok ? 0 : 1;
  }

 private:
  template <typename WriteFn>
  bool write_file(const std::string& path, WriteFn&& fn) {
    if (path.empty()) return true;
    std::ofstream out{path};
    if (!out) {
      std::fprintf(stderr, "error: cannot open telemetry output %s\n", path.c_str());
      return false;
    }
    fn(out);
    out.flush();  // buffered bytes can still fail (e.g. a full disk)
    if (!out) {
      std::fprintf(stderr, "error: cannot write telemetry output %s\n", path.c_str());
      return false;
    }
    std::fprintf(stderr, "# telemetry: wrote %s\n", path.c_str());
    return true;
  }

  metrics::TelemetryExport export_;
  std::vector<ShapeCheck> checks_;
  std::string json_out_, csv_out_, prom_out_;
  int unnamed_tables_ = 0;
};

}  // namespace serve::bench
