# Runs ncbench once per command and fails unless every record reports
# pfs.grant_inversions == 0: no server granted a request that arrived before
# one it had already granted, so every wait the simulator charged is one the
# cost model implies, not an artifact of turn order.
#
#   cmake -DNCBENCH=<ncbench> -DOUT=<dir>
#         "-DCOMMANDS=--suite=smoke|--bench=ablation_collective --mode=independent"
#         -P bench_inversions.cmake
# COMMANDS is a '|'-separated list; each entry is one string of
# space-separated ncbench flags.
file(MAKE_DIRECTORY "${OUT}")
string(REPLACE "|" ";" commands "${COMMANDS}")
set(i 0)
foreach(cmd IN LISTS commands)
  math(EXPR i "${i} + 1")
  separate_arguments(args UNIX_COMMAND "${cmd}")
  set(json "${OUT}/run${i}.json")
  file(REMOVE "${json}")  # ncbench appends to an existing --json file
  execute_process(COMMAND "${NCBENCH}" ${args} "--json=${json}"
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ncbench ${cmd} exited ${rc}")
  endif()
  file(READ "${json}" text)
  string(REGEX MATCHALL
         "\"pfs\\.grant_inversions\":{\"min\":[0-9]+,\"max\":[0-9]+,\"sum\":[0-9]+"
         counts "${text}")
  list(LENGTH counts n)
  if(n EQUAL 0)
    message(FATAL_ERROR "ncbench ${cmd}: no pfs.grant_inversions counter")
  endif()
  set(total 0)
  foreach(c IN LISTS counts)
    string(REGEX REPLACE ".*\"sum\":([0-9]+)$" "\\1" sum "${c}")
    math(EXPR total "${total} + ${sum}")
  endforeach()
  if(NOT total EQUAL 0)
    message(FATAL_ERROR
            "ncbench ${cmd}: ${total} grant inversions over ${n} records")
  endif()
  message(STATUS "ncbench ${cmd}: 0 grant inversions over ${n} records")
endforeach()
