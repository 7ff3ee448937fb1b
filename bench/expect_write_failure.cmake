# Proves a bench fails loudly when its output cannot be written: the output
# goes to /dev/full, which opens fine and fails every write with ENOSPC. The
# bench must exit non-zero, name the failed output in an "error:" line, and
# not claim it wrote the file. Prints "SKIP" (the test's skip pattern) where
# /dev/full does not exist.
#
#   cmake -DEXE=<bench> -DARGS=<comma-separated args> -P expect_write_failure.cmake
if(NOT EXISTS /dev/full)
  message("SKIP: /dev/full does not exist")
  return()
endif()
string(REPLACE "," ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited 0 although writing /dev/full failed:\n${err}")
endif()
if(NOT err MATCHES "error: cannot write [a-z]+ output /dev/full")
  message(FATAL_ERROR "${EXE} exited ${rc} without reporting the failed write:\n${err}")
endif()
if(err MATCHES "# (trace|telemetry|alerts): (wrote )?/dev/full")
  message(FATAL_ERROR "${EXE} reported /dev/full as written:\n${err}")
endif()
