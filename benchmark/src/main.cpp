// servescope_bench: one named workload per process.
//
//   servescope_bench --workload <name> --seed <n> [--seconds <s>]
//                    [--json-out <file>] [--trace-out <dir>] [--smoke]
//
// Without --trace-out the run measures the end-to-end metrics; with it, the
// per-layer metrics (and writes the substrate's Chrome trace into <dir>).
// Every metric prints as "<name> <value> <unit>"; the last stdout line is
// the JSON result object. Exit status 0 only when every checked operation
// succeeded.
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>

#include "alloc_counter.h"
#include "report.h"
#include "workloads.h"

using namespace serve::perf;

namespace {

constexpr std::string_view kWorkloads[] = {"sim-bare", "sim-observed", "fleet-chaos",
                                           "substrate-jpeg", "substrate-durable"};

enum class Family { kSim, kFleet, kSubstrate };

Family family_of(std::string_view w) {
  if (w == "fleet-chaos") return Family::kFleet;
  if (w.starts_with("substrate-")) return Family::kSubstrate;
  return Family::kSim;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: servescope_bench --workload <name> --seed <n> [--seconds <s>] "
               "[--json-out <file>] [--trace-out <dir>] [--smoke]\nworkloads:",
               why);
  for (auto w : kWorkloads) std::fprintf(stderr, " %.*s", static_cast<int>(w.size()), w.data());
  std::fprintf(stderr, "\n");
  return 2;
}

/// Scratch space next to the executable (inside the build tree), removed
/// when the run ends however it ends.
class WorkDir {
 public:
  explicit WorkDir(const std::string& workload) {
    const auto exe = std::filesystem::read_symlink("/proc/self/exe");
    path_ = exe.parent_path() / "tmp" / (workload + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// A traced run prints every layer metric within the same budget as an
/// untraced run: its own family gets half of it, on the workload's spec; the
/// other two families run as probes with a quarter each (and quarter-length
/// virtual windows).
void run_layers(const RunOptions& opts, Family own, Ingest ingest, RunResult& out) {
  RunOptions probe = opts;
  probe.scale = opts.scale / 4;
  const double own_s = opts.seconds / 2;
  const double probe_s = opts.seconds / 4;
  sim_layers(own == Family::kSim ? opts : probe, own == Family::kSim ? own_s : probe_s, out);
  fleet_layers(own == Family::kFleet ? opts : probe, own == Family::kFleet ? own_s : probe_s, out);
  substrate_layers(opts, ingest, own == Family::kSubstrate ? own_s : probe_s, out);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  std::string json_out;
  bool smoke = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string_view {
      return i + 1 < argc ? std::string_view{argv[++i]} : std::string_view{};
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      const auto v = value();
      const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), opts.seed);
      if (ec != std::errc{} || p != v.data() + v.size()) return usage("--seed needs an integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      const auto v = value();
      const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), opts.seconds);
      if (ec != std::errc{} || p != v.data() + v.size() || opts.seconds <= 0.0) {
        return usage("--seconds needs a positive number");
      }
    } else if (arg == "--json-out") {
      json_out = value();
    } else if (arg == "--trace-out") {
      opts.trace_out = value();
      if (opts.trace_out.empty()) return usage("--trace-out needs a directory");
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return usage(("unknown argument " + std::string(arg)).c_str());
    }
  }
  bool known = false;
  for (auto w : kWorkloads) known = known || w == opts.workload;
  if (!known) return usage("unknown or missing --workload");
  if (!have_seed) return usage("missing --seed");
  if (smoke) {
    opts.seconds /= 20;
    opts.scale /= 20;
  }

  RunResult result;
  try {
    const WorkDir work{opts.workload};
    opts.work_dir = work.path();
    const Family family = family_of(opts.workload);
    const Ingest ingest =
        opts.workload == "substrate-durable" ? Ingest::kDurable : Ingest::kJpeg;
    if (!opts.trace_out.empty()) {
      run_layers(opts, family, ingest, result);
    } else {
      switch (family) {
        case Family::kSim:
          sim_end_to_end(opts, opts.workload == "sim-observed", result);
          break;
        case Family::kFleet:
          fleet_end_to_end(opts, result);
          break;
        case Family::kSubstrate:
          substrate_end_to_end(opts, ingest, result);
          break;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const double rss = heap::peak_rss_mb();
  if (opts.trace_out.empty()) {
    result.add("peak_rss_mb", rss, "MiB");
  } else {
    result.note("peak_rss_mb", rss, "MiB");
  }
  result.note("error_rate",
              result.attempted == 0
                  ? 1.0
                  : static_cast<double>(result.failed) / static_cast<double>(result.attempted),
              "ratio");
  if (const std::string bad = validate(result); !bad.empty()) {
    std::fprintf(stderr, "error: %s\n", bad.c_str());
    return 1;
  }
  for (const auto& m : result.metrics) std::printf("%s\n", metric_line(m).c_str());
  for (const auto& m : result.diagnostics) std::printf("%s\n", metric_line(m).c_str());
  const std::string json = to_json(result);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  if (!json_out.empty()) {
    std::ofstream f{json_out};
    f << json << "\n";
    if (!f) {
      std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
      return 1;
    }
  }
  return result.correct() ? 0 : 1;
}
