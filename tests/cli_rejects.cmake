# Runs the CLI with one malformed numeric flag and fails unless it exits 2
# with "invalid --FLAG 'VALUE'" on stderr (a crash or a silent misread
# fails the test).
#
#   cmake -DCLI=path/to/sofya_cli -DCMD="align|--kb1|x.nt|..." \
#         -DFLAG=threads -DVALUE=x -P cli_rejects.cmake
#
# CMD lists the arguments before the flag, separated by '|'.
string(REPLACE "|" ";" args "${CMD}")
execute_process(
  COMMAND "${CLI}" ${args} "--${FLAG}" "${VALUE}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
set(want "invalid --${FLAG} '${VALUE}'")
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "exit status ${rc}, want 2; stderr:\n${err}")
endif()
string(FIND "${err}" "${want}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "stderr lacks \"${want}\":\n${err}")
endif()
