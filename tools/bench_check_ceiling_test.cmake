# Proves `servescope bench-check` gates allocation counters as hard ceilings,
# using the committed BENCH_sim.json: the baseline compared with itself
# passes, and a copy whose heap_allocs_per_req rose by 0.5 must make it exit
# non-zero. A candidate truncated inside its second benchmark object must be
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
