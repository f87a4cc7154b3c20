# Runs one bench and fails when its stdout differs from a committed file:
#   cmake -DBENCH=<binary> -DEXPECTED=<file> -DACTUAL=<file> -P golden_check.cmake
# On a difference the actual stdout is written to ACTUAL and diffed against
# EXPECTED. To accept a deliberate change, copy ACTUAL over EXPECTED.
execute_process(COMMAND "${BENCH}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  execute_process(COMMAND diff -u "${EXPECTED}" "${ACTUAL}")
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${EXPECTED} (actual: ${ACTUAL})")
endif()
