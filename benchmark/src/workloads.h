// The three workload families servescope_bench drives.
//
// Each family has an end-to-end entry point (the untraced run: the numbers
// a user of ServeScope sees) and a layer entry point (the traced run: one
// cost per layer). A traced run of any workload reports every layer metric:
// its own family at full length on the workload's own spec, the other
// families as shorter probes, so each layer's cost is printed on every
// workload (see README.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>

#include "report.h"

namespace serve::perf {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget of the run
  /// Length multiplier for virtual windows and fixed phase lengths
  /// (1/20 under --smoke).
  double scale = 1.0;
  std::filesystem::path work_dir;   ///< fresh per run; logs live here
  std::filesystem::path trace_out;  ///< traced runs write Chrome traces here
};

using Clock = std::chrono::steady_clock;

/// setup_s is the median of this many set-ups, so that no single slow
/// stretch of a shared host (a second or two at up to 2x the time, most
/// often just after a process starts) decides it. The simulator's set-ups
/// take tens of milliseconds and are spread over the run; the substrate's
/// take a third of a second or more and run back to back before it, where
/// they also warm it up.
inline constexpr int kSetupRepeats = 7;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// sim-bare / sim-observed: one ViT-Base server, 256 closed-loop clients.
void sim_end_to_end(const RunOptions& opts, bool observed, RunResult& out);
void sim_layers(const RunOptions& opts, double budget_s, RunResult& out);

// fleet-chaos: four nodes behind the balancer under a fault plan.
void fleet_end_to_end(const RunOptions& opts, RunResult& out);
void fleet_layers(const RunOptions& opts, double budget_s, RunResult& out);

// substrate-*: real JPEG decode through the in-process and file-log brokers.
enum class Ingest : std::uint8_t {
  kJpeg,     ///< medium JPEGs in memory; results appended to the log
  kDurable,  ///< small JPEGs appended to the log (fsync each), read back
};
void substrate_end_to_end(const RunOptions& opts, Ingest ingest, RunResult& out);
void substrate_layers(const RunOptions& opts, Ingest ingest, double budget_s, RunResult& out);

}  // namespace serve::perf
