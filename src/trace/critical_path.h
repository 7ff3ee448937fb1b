// Critical-path extraction over causal span trees.
//
// Given the spans of one trace (or many traces mixed), rebuilds each tree
// from parent links and walks the longest causal chain backward from the
// moment the root's subtree finished: at every point the walk descends into
// the child subtree that finished last before the cursor, attributes any
// uncovered gap to the parent's own execution, and repeats until it reaches
// the root's start. The result is an exact tiling of the trace's end-to-end
// extent: per-span "self time on the path" sums to the root duration, and
// aggregating by span name yields the per-stage shares that must agree with
// the RequestAuditor's Fig. 6 breakdown (the cross-check `servescope
// traces` enforces).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.h"

namespace serve::trace {

/// One span as reconstructed from an exported trace.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::string name;   ///< stage name ("queue", "inference", "broker", ...)
  std::string track;
  std::string blame;  ///< wait-span blame annotation, empty when none
  sim::Time begin = 0;
  sim::Time end = 0;
};

/// One hop of a critical path: `attributed` is the path time charged to this
/// span itself (its duration minus the parts covered by deeper children that
/// the walk descended into, plus any gaps its children left uncovered).
struct PathStep {
  const SpanRecord* span = nullptr;
  sim::Time attributed = 0;
};

struct CriticalPath {
  const SpanRecord* root = nullptr;
  sim::Time total = 0;  ///< root begin -> last descendant end; == sum(attributed)
  std::vector<PathStep> steps;  ///< causal order (earliest span first)
  std::map<std::string, sim::Time> by_name;  ///< per-span-name attribution
  std::size_t span_count = 0;    ///< spans in this trace
  std::size_t orphan_count = 0;  ///< spans whose parent id resolves to nothing
  std::size_t root_count = 0;    ///< parentless spans (a well-formed trace has 1)
};

/// Extracts one CriticalPath per trace id present in `spans`, ordered by
/// trace id. Traces with no parentless span yield a CriticalPath with a null
/// root (orphan/root counts still filled), so malformed input is reported,
/// not hidden. `spans` must outlive the returned paths.
[[nodiscard]] std::vector<CriticalPath> extract_critical_paths(
    const std::vector<SpanRecord>& spans);

}  // namespace serve::trace
