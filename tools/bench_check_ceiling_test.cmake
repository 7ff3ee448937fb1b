# Proves bench_check gates allocation counters as hard ceilings, using the
# committed BENCH_sim.json: the baseline compared with itself passes, and a
# copy whose heap_allocs_per_req rose by 0.5 must make bench_check exit
# non-zero.
#
#   cmake -DBENCH_CHECK=<bench_check> -DBASELINE=<BENCH_sim.json> \
#         -DWORK_DIR=<dir> -P bench_check_ceiling_test.cmake
execute_process(COMMAND "${BENCH_CHECK}" "${BASELINE}" "${BASELINE}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_check rejected ${BASELINE} against itself (exit ${rc})")
endif()

file(READ "${BASELINE}" text)
string(REGEX REPLACE "\"heap_allocs_per_req\": [^,\n]+" "\"heap_allocs_per_req\": 5.0e-01"
       doctored "${text}")
if(doctored STREQUAL text)
  message(FATAL_ERROR "no heap_allocs_per_req counter to raise in ${BASELINE}")
endif()
set(raised "${WORK_DIR}/BENCH_sim.raised_allocs.json")
file(WRITE "${raised}" "${doctored}")
execute_process(COMMAND "${BENCH_CHECK}" "${BASELINE}" "${raised}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "bench_check accepted a raised heap_allocs_per_req:\n${out}")
endif()
