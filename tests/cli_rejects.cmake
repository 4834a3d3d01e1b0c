# Runs the CLI with one bad flag and fails unless it exits 2 with WANT on
# stderr (a crash or a silent misread fails the test). WANT defaults to
# "invalid --FLAG 'VALUE'", the message for a malformed numeric value.
#
#   cmake -DCLI=path/to/sofya_cli -DCMD="align|--kb1|x.nt|..." \
#         -DFLAG=threads -DVALUE=x [-DWANT="unknown flag --threads"] \
#         -P cli_rejects.cmake
#
# CMD lists the arguments before the flag, separated by '|'.
string(REPLACE "|" ";" args "${CMD}")
execute_process(
  COMMAND "${CLI}" ${args} "--${FLAG}" "${VALUE}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT DEFINED WANT OR WANT STREQUAL "")
  set(WANT "invalid --${FLAG} '${VALUE}'")
endif()
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "exit status ${rc}, want 2; stderr:\n${err}")
endif()
string(FIND "${err}" "${WANT}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "stderr lacks \"${WANT}\":\n${err}")
endif()
