// Compares two google-benchmark JSON outputs and fails on large regressions.
//
//   bench_check baseline.json current.json [--tolerance 0.30]
//
// A benchmark regresses when its current real_time exceeds the baseline by
// more than `tolerance` (fractional; default 30%). The tolerance is
// deliberately generous: CI machines are noisy and shared, so the gate is
// meant to catch order-of-magnitude mistakes (an accidentally disabled fast
// path), not a few percent of jitter. Benchmarks present on only one side
// are warned about but never fail the check.
//
// Counters named `*allocs_per_req` are hard ceilings instead: allocation
// counts do not jitter, so a benchmark fails when one exceeds its baseline
// by more than kAllocSlack, whatever the tolerance.
//
// The parser below handles exactly the subset of JSON that google-benchmark
// emits (objects/arrays/strings/numbers/bools, no escapes beyond \" \\ \/
// \n \t), which keeps this tool dependency-free.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// Absolute slack on `*allocs_per_req` ceilings (covers float rounding of
/// per-request averages, not real extra allocations).
constexpr double kAllocSlack = 0.01;

struct Bench {
  double real_time = 0.0;
  std::string time_unit = "ns";
  std::map<std::string, double> alloc_ceilings;  ///< `*allocs_per_req` counters
};

double unit_to_ns(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;
}

/// Minimal recursive-descent scanner over the benchmark JSON. We only need
/// the objects inside the top-level "benchmarks" array, and within each the
/// "name", "real_time", "time_unit" and `*allocs_per_req` fields.
class Scanner {
 public:
  explicit Scanner(std::string text) : text_(std::move(text)) {}

  [[nodiscard]] std::map<std::string, Bench> benchmarks() {
    std::map<std::string, Bench> out;
    const std::size_t key = text_.find("\"benchmarks\"");
    if (key == std::string::npos) return out;
    pos_ = text_.find('[', key);
    if (pos_ == std::string::npos) return out;
    ++pos_;
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] == ']') break;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] != '{') break;
      auto entry = parse_object();
      if (entry) out[entry->first] = entry->second;
    }
    return out;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::optional<std::string> parse_string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
    ++pos_;
    std::string s;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      s.push_back(text_[pos_++]);
    }
    if (pos_ < text_.size()) ++pos_;  // closing quote
    return s;
  }

  /// Consumes one value of any type; returns its raw text (sans containers'
  /// contents — nested objects/arrays are skipped with depth counting).
  std::string parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return {};
    const char c = text_[pos_];
    if (c == '"') return parse_string().value_or("");
    if (c == '{' || c == '[') {
      const char open = c;
      const char close = (c == '{') ? '}' : ']';
      int depth = 0;
      std::string raw;
      bool in_str = false;
      while (pos_ < text_.size()) {
        const char ch = text_[pos_++];
        raw.push_back(ch);
        if (in_str) {
          if (ch == '\\' && pos_ < text_.size()) raw.push_back(text_[pos_++]);
          else if (ch == '"') in_str = false;
        } else if (ch == '"') {
          in_str = true;
        } else if (ch == open) {
          ++depth;
        } else if (ch == close) {
          if (--depth == 0) break;
        }
      }
      return raw;
    }
    std::string raw;
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}' &&
           text_[pos_] != ']' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      raw.push_back(text_[pos_++]);
    }
    return raw;
  }

  std::optional<std::pair<std::string, Bench>> parse_object() {
    ++pos_;  // consume '{'
    std::string name;
    Bench b;
    bool have_time = false;
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size()) return std::nullopt;
      if (text_[pos_] == '}') { ++pos_; break; }
      if (text_[pos_] == ',') { ++pos_; continue; }
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ':') ++pos_;
      const std::string value = parse_value();
      if (*key == "name") {
        name = value;
      } else if (*key == "real_time") {
        b.real_time = std::strtod(value.c_str(), nullptr);
        have_time = true;
      } else if (*key == "time_unit") {
        b.time_unit = value;
      } else if (key->ends_with("allocs_per_req")) {
        b.alloc_ceilings[*key] = std::strtod(value.c_str(), nullptr);
      }
    }
    if (name.empty() || !have_time) return std::nullopt;
    // Skip aggregate rows (mean/median/stddev) if repetitions were used.
    if (name.find("_mean") != std::string::npos ||
        name.find("_median") != std::string::npos ||
        name.find("_stddev") != std::string::npos ||
        name.find("_cv") != std::string::npos) {
      return std::nullopt;
    }
    return std::make_pair(name, b);
  }

  std::string text_;
  std::size_t pos_ = 0;
};

struct LoadedFile {
  std::map<std::string, Bench> benchmarks;
  std::string build_type;  ///< "release"/"debug" from the context; "" if absent
};

/// Pulls the build type out of the context header. "build_type" is the
/// app-level marker (Reporter exports set it; our google-benchmark mains
/// inject it via AddCustomContext) and wins over google-benchmark's
/// "library_build_type", which reflects how the *system benchmark library*
/// was compiled, not the code under test. Only the text before the
/// "benchmarks" array is searched so benchmark names can never alias the key.
std::string build_type_of(const std::string& text) {
  const std::size_t bench = text.find("\"benchmarks\"");
  const std::string head =
      text.substr(0, bench == std::string::npos ? text.size() : bench);
  for (const char* key : {"\"build_type\"", "\"library_build_type\""}) {
    std::size_t p = head.find(key);
    if (p == std::string::npos) continue;
    p = head.find(':', p);
    if (p == std::string::npos) continue;
    const std::size_t q1 = head.find('"', p);
    if (q1 == std::string::npos) continue;
    const std::size_t q2 = head.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    return head.substr(q1 + 1, q2 - q1 - 1);
  }
  return {};
}

std::optional<LoadedFile> load(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  LoadedFile f;
  f.build_type = build_type_of(ss.str());
  f.benchmarks = Scanner{ss.str()}.benchmarks();
  return f;
}

/// Debug-build numbers in either file make the comparison meaningless (a
/// debug baseline hides every regression; a debug candidate fails falsely).
/// Returns false when `role` should fail the check.
bool check_build_type(const char* role, const char* path, const std::string& bt,
                      bool allow_debug) {
  if (bt.empty()) {
    std::fprintf(stderr,
                 "bench_check: WARN: %s %s has no build-type context; re-record it "
                 "with a current Release build\n",
                 role, path);
    return true;
  }
  if (bt != "release" && !allow_debug) {
    std::fprintf(stderr,
                 "bench_check: %s %s was recorded from a '%s' build; benchmark "
                 "gating requires Release numbers (pass --allow-debug to override)\n",
                 role, path, bt.c_str());
    return false;
  }
  if (bt != "release") {
    std::fprintf(stderr, "bench_check: WARN: %s %s is a '%s' build (allowed by flag)\n",
                 role, path, bt.c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double tolerance = 0.30;
  bool allow_debug = false;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tolerance" && i + 1 < argc) {
      tolerance = std::strtod(argv[++i], nullptr);
    } else if (arg == "--allow-debug") {
      allow_debug = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bench_check baseline.json current.json [--tolerance 0.30] "
          "[--allow-debug]\n");
      return 0;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_check baseline.json current.json [--tolerance 0.30] "
                 "[--allow-debug]\n");
    return 2;
  }
  const auto loaded_base = load(files[0]);
  const auto loaded_cur = load(files[1]);
  if (!loaded_base) { std::fprintf(stderr, "bench_check: cannot read %s\n", files[0]); return 2; }
  if (!loaded_cur) { std::fprintf(stderr, "bench_check: cannot read %s\n", files[1]); return 2; }
  const auto* baseline = &loaded_base->benchmarks;
  const auto* current = &loaded_cur->benchmarks;
  if (baseline->empty()) { std::fprintf(stderr, "bench_check: no benchmarks in %s\n", files[0]); return 2; }
  if (current->empty()) { std::fprintf(stderr, "bench_check: no benchmarks in %s\n", files[1]); return 2; }

  bool builds_ok = true;
  builds_ok &= check_build_type("baseline", files[0], loaded_base->build_type, allow_debug);
  builds_ok &= check_build_type("candidate", files[1], loaded_cur->build_type, allow_debug);
  if (!builds_ok) return 1;

  int regressions = 0;
  std::printf("%-44s %12s %12s %8s\n", "benchmark", "baseline", "current", "delta");
  for (const auto& [name, base] : *baseline) {
    const auto it = current->find(name);
    if (it == current->end()) {
      std::printf("%-44s %12s %12s %8s  WARN: missing from current run\n",
                  name.c_str(), "-", "-", "-");
      continue;
    }
    for (const auto& [counter, ceiling] : base.alloc_ceilings) {
      const std::string row = name + "/" + counter;
      const auto cur = it->second.alloc_ceilings.find(counter);
      if (cur == it->second.alloc_ceilings.end()) {
        std::printf("%-44s %12s %12s %8s  WARN: missing from current run\n", row.c_str(), "-",
                    "-", "-");
        continue;
      }
      const bool bad = cur->second > ceiling + kAllocSlack;
      std::printf("%-44s %12.4f %12.4f %8s%s\n", row.c_str(), ceiling, cur->second, "ceiling",
                  bad ? "  REGRESSION" : "");
      if (bad) ++regressions;
    }
    const double base_ns = base.real_time * unit_to_ns(base.time_unit);
    const double cur_ns = it->second.real_time * unit_to_ns(it->second.time_unit);
    if (base_ns <= 0.0) continue;
    const double delta = cur_ns / base_ns - 1.0;
    const bool bad = delta > tolerance;
    std::printf("%-44s %10.0fns %10.0fns %+7.1f%%%s\n", name.c_str(), base_ns, cur_ns,
                delta * 100.0, bad ? "  REGRESSION" : "");
    if (bad) ++regressions;
  }
  for (const auto& [name, cur] : *current) {
    (void)cur;
    if (baseline->find(name) == baseline->end()) {
      std::printf("%-44s %12s %12s %8s  WARN: new benchmark (no baseline)\n",
                  name.c_str(), "-", "-", "-");
    }
  }
  if (regressions > 0) {
    std::fprintf(stderr,
                 "bench_check: %d regression(s): real_time over the %.0f%% tolerance or an "
                 "allocs_per_req counter over its ceiling\n",
                 regressions, tolerance * 100.0);
    return 1;
  }
  std::printf("bench_check: OK (tolerance %.0f%%)\n", tolerance * 100.0);
  return 0;
}
