# Runs `sofya explain --execute --json` on the predicate-inventory query
# over a three-predicate KB and fails unless the engine answers it from the
# predicate directory, with the one clause's actual rows (3) in the table.
# The same query without DISTINCT must report the scanning pipeline.
#
#   cmake -DCLI=path/to/sofya_cli -DKB=path/to/scratch.nt \
#         -P cli_explain.cmake
file(WRITE "${KB}"
  "<http://x.org/a> <http://x.org/p1> <http://x.org/b> .\n"
  "<http://x.org/b> <http://x.org/p1> <http://x.org/c> .\n"
  "<http://x.org/a> <http://x.org/p2> <http://x.org/c> .\n"
  "<http://x.org/c> <http://x.org/p3> \"lit\" .\n")

function(explain sparql want)
  execute_process(
    COMMAND "${CLI}" explain --kb "${KB}" --execute --json --sparql "${sparql}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "exit status ${rc} for ${sparql}; stderr:\n${err}")
  endif()
  foreach(needle ${want})
    string(FIND "${out}" "${needle}" pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR "${sparql}: output lacks ${needle}:\n${out}")
    endif()
  endforeach()
endfunction()

explain("SELECT DISTINCT ?p WHERE { ?s ?p ?o }"
  "\"access\":\"predicate_directory\";\"actual_rows\":3,")
explain("SELECT ?p WHERE { ?s ?p ?o }"
  "\"access\":\"pipeline\";\"actual_rows\":4,")
