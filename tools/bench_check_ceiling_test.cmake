# Proves `servescope bench-check` gates allocation counters as hard ceilings
# and rate counters in their better direction, using the committed
# BENCH_sim.json: the baseline compared with itself passes, and a copy whose
# heap_allocs_per_req rose by 0.5, or whose events/s fell to a tenth, must
# make it exit non-zero. So must a copy that lacks its first benchmark object:
# a deleted or renamed benchmark fails the gate instead of dropping out of
# it. A candidate truncated inside its second benchmark object must be
# rejected as malformed (exit 2), not read as "benchmarks missing".
#
#   cmake -DSERVESCOPE=<servescope> -DBASELINE=<BENCH_sim.json> \
#         -DWORK_DIR=<dir> -P bench_check_ceiling_test.cmake
execute_process(COMMAND "${SERVESCOPE}" bench-check "${BASELINE}" "${BASELINE}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench-check rejected ${BASELINE} against itself (exit ${rc})")
endif()

file(READ "${BASELINE}" text)
string(REGEX REPLACE "\"heap_allocs_per_req\": [^,\n]+" "\"heap_allocs_per_req\": 5.0e-01"
       doctored "${text}")
if(doctored STREQUAL text)
  message(FATAL_ERROR "no heap_allocs_per_req counter to raise in ${BASELINE}")
endif()
set(raised "${WORK_DIR}/BENCH_sim.raised_allocs.json")
file(WRITE "${raised}" "${doctored}")
execute_process(COMMAND "${SERVESCOPE}" bench-check "${BASELINE}" "${raised}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "bench-check accepted a raised heap_allocs_per_req:\n${out}")
endif()

# Only the rate counter slows (to 1000 events/s); real_time is untouched,
# so the rate gate alone must catch it.
string(REGEX REPLACE "\"events/s\": [^,\n]+" "\"events/s\": 1.0e+03" doctored "${text}")
if(doctored STREQUAL text)
  message(FATAL_ERROR "no events/s counter to slow in ${BASELINE}")
endif()
set(slowed "${WORK_DIR}/BENCH_sim.slowed_rate.json")
file(WRITE "${slowed}" "${doctored}")
execute_process(COMMAND "${SERVESCOPE}" bench-check "${BASELINE}" "${slowed}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "bench-check on a slowed events/s: expected exit 1, got ${rc}:\n${out}")
endif()

# Drop the first benchmark object, from its opening brace to the next one's.
string(FIND "${text}" "\"benchmarks\": [\n    {" first)
string(FIND "${text}" "\n    },\n    {" second)
if(first EQUAL -1 OR second EQUAL -1)
  message(FATAL_ERROR "fewer than two benchmark objects in ${BASELINE}")
endif()
math(EXPR first "${first} + 15")
math(EXPR second "${second} + 8")
string(SUBSTRING "${text}" 0 ${first} head)
string(SUBSTRING "${text}" ${second} -1 tail)
set(dropped "${WORK_DIR}/BENCH_sim.dropped_bench.json")
file(WRITE "${dropped}" "${head}${tail}")
execute_process(COMMAND "${SERVESCOPE}" bench-check "${BASELINE}" "${dropped}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 1 OR NOT out MATCHES "REGRESSION: missing from current run")
  message(FATAL_ERROR "bench-check on a candidate without its first benchmark: expected exit 1 "
                      "naming the missing row, got ${rc}:\n${out}")
endif()

# Repeated runs are compared by their median aggregate: one slow repetition
# (the last row, which a per-row reader would keep) must not fail the check.
set(ctx "\"context\": {\"build_type\": \"release\"}")
set(rep_base "${WORK_DIR}/BENCH_rep.base.json")
file(WRITE "${rep_base}" "{${ctx}, \"benchmarks\": [
  {\"name\": \"BM_X\", \"run_name\": \"BM_X\", \"run_type\": \"iteration\",
   \"real_time\": 100, \"time_unit\": \"ns\", \"items_per_second\": 1e7}]}")
set(rep_cur "${WORK_DIR}/BENCH_rep.current.json")
file(WRITE "${rep_cur}" "{${ctx}, \"benchmarks\": [
  {\"name\": \"BM_X\", \"run_name\": \"BM_X\", \"run_type\": \"iteration\",
   \"real_time\": 101, \"time_unit\": \"ns\", \"items_per_second\": 9.9e6},
  {\"name\": \"BM_X\", \"run_name\": \"BM_X\", \"run_type\": \"iteration\",
   \"real_time\": 99, \"time_unit\": \"ns\", \"items_per_second\": 1.01e7},
  {\"name\": \"BM_X\", \"run_name\": \"BM_X\", \"run_type\": \"iteration\",
   \"real_time\": 900, \"time_unit\": \"ns\", \"items_per_second\": 1.1e6},
  {\"name\": \"BM_X_mean\", \"run_name\": \"BM_X\", \"run_type\": \"aggregate\",
   \"aggregate_name\": \"mean\", \"real_time\": 366, \"time_unit\": \"ns\",
   \"items_per_second\": 7.0e6},
  {\"name\": \"BM_X_median\", \"run_name\": \"BM_X\", \"run_type\": \"aggregate\",
   \"aggregate_name\": \"median\", \"real_time\": 101, \"time_unit\": \"ns\",
   \"items_per_second\": 9.9e6}]}")
execute_process(COMMAND "${SERVESCOPE}" bench-check "${rep_base}" "${rep_cur}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench-check did not compare the median of repeated runs (exit ${rc}):\n${out}")
endif()

# Cut the file just after the second benchmark's "name" key.
string(FIND "${text}" "\"benchmarks\"" at)
string(SUBSTRING "${text}" ${at} -1 rest)
foreach(i RANGE 1 2)
  string(FIND "${rest}" "\"name\"" name_at)
  if(name_at EQUAL -1)
    message(FATAL_ERROR "fewer than two benchmark objects in ${BASELINE}")
  endif()
  math(EXPR at "${at} + ${name_at} + 6")
  math(EXPR skip "${name_at} + 6")
  string(SUBSTRING "${rest}" ${skip} -1 rest)
endforeach()
string(SUBSTRING "${text}" 0 ${at} truncated)
set(cut "${WORK_DIR}/BENCH_sim.truncated.json")
file(WRITE "${cut}" "${truncated}")
execute_process(COMMAND "${SERVESCOPE}" bench-check "${BASELINE}" "${cut}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "bench-check on a truncated candidate: expected exit 2, got ${rc}:\n${out}")
endif()
