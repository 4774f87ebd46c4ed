# Runs ftclust_cli on one input file and requires exit code 2 with a
# one-line stderr message that names the file (no abort, no stack trace).
#
#   cmake -DCLI=<ftclust_cli> -DINPUT=<file> -P cli_exit_code.cmake
execute_process(COMMAND "${CLI}" "--graph=${INPUT}" --algorithm=greedy
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2, got '${code}'; stderr: ${err}")
endif()
string(FIND "${err}" "${INPUT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name ${INPUT}: ${err}")
endif()
