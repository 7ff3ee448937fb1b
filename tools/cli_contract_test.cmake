# The `servescope` CLI's input contracts, for every subcommand:
#   - malformed JSON exits 2;
#   - 200k-deep '[' nesting is a parse error: a non-zero exit, not a signal;
#   - the degenerate-but-valid telemetry documents (no samples, an empty
#     histogram, an empty zero-period capacity section) render with exit 0
#     and no nan/inf in stdout in the subcommands that read telemetry, and
#     are rejected with exit 2 by the ones that read other formats;
#   - an unknown or missing subcommand exits 2.
#
#   cmake -DSERVESCOPE=<servescope> -DWORK_DIR=<dir> -P cli_contract_test.cmake
cmake_minimum_required(VERSION 3.20)

# Runs `servescope <args...>` and fails unless the exit code equals `want`
# ("error" accepts any exit in 1..127). Stdout lands in `out_var`.
function(expect_exit want out_var)
  execute_process(COMMAND "${SERVESCOPE}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(JOIN " " cmd ${ARGN})
  if(want STREQUAL "error")
    if(NOT rc MATCHES "^[0-9]+$" OR rc EQUAL 0 OR rc GREATER_EQUAL 128)
      message(FATAL_ERROR "servescope ${cmd}: expected a parse error, got '${rc}':\n${err}")
    endif()
  elseif(NOT "${rc}" STREQUAL "${want}")
    message(FATAL_ERROR "servescope ${cmd}: expected exit ${want}, got '${rc}':\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

file(WRITE "${WORK_DIR}/broken.json" "{ this is not json\n")
string(REPEAT "[" 200000 open)
string(REPEAT "]" 200000 close)
file(WRITE "${WORK_DIR}/deep.json" "${open}${close}\n")
file(WRITE "${WORK_DIR}/degenerate.json" [=[
{
  "schema": "servescope-telemetry-v1",
  "context": {"build_type": "Release"},
  "benchmarks": [],
  "instruments": [
    {"kind": "histogram", "name": "serving_request_latency_seconds",
     "labels": {}, "count": 0, "sum": 0.0, "buckets": []}
  ],
  "series": []
}
]=])
file(WRITE "${WORK_DIR}/degenerate_capacity.json" [=[
{
  "schema": "servescope-telemetry-v1",
  "context": {"build_type": "Release"},
  "benchmarks": [],
  "instruments": [],
  "series": [],
  "capacity": {"period_s": 0.0, "resources": [], "segments": [],
    "little_l": [], "little_lambda_w": [], "violation_intervals": [],
    "sustainable_rps": 0.0, "binding": "idle", "binding_stage": "ingest"}
}
]=])

set(two_files diff bench-check)
foreach(sub report capacity diff traces bench-check)
  foreach(input broken deep degenerate degenerate_capacity)
    set(file "${WORK_DIR}/${input}.json")
    set(args ${sub} "${file}")
    if(sub IN_LIST two_files)
      list(APPEND args "${file}")
    endif()
    if(input STREQUAL "broken")
      expect_exit(2 out ${args})
    elseif(input STREQUAL "deep")
      expect_exit(error out ${args})
    elseif(sub MATCHES "^(traces|bench-check)$")
      expect_exit(2 out ${args})  # not a trace / no benchmarks
    else()
      expect_exit(0 out ${args})
      string(TOLOWER "${out}" lower)
      if(lower MATCHES "nan|[^a-z]inf")
        string(JOIN " " cmd ${args})
        message(FATAL_ERROR "servescope ${cmd} leaked nan/inf:\n${out}")
      endif()
    endif()
  endforeach()
endforeach()

expect_exit(2 out no-such-subcommand "${WORK_DIR}/degenerate.json")
expect_exit(2 out)
