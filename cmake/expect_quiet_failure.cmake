# ctest helper: runs COMMAND (arguments separated by '|') and passes only
# when it exits with EXPECT_EXIT and writes nothing to stdout, so a
# rejected input cannot leave a partial report for a caller that
# captures stdout.
#
#   cmake -DEXPECT_EXIT=2 "-DCOMMAND=lamps|schedule|..." -P expect_quiet_failure.cmake
string(REPLACE "|" ";" argv "${COMMAND}")
execute_process(COMMAND ${argv} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc STREQUAL "${EXPECT_EXIT}" OR NOT out STREQUAL "")
  message(FATAL_ERROR "exit ${rc} (want ${EXPECT_EXIT}), stdout:\n${out}")
endif()
