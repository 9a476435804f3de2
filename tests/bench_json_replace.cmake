# Runs one single-bench ncbench command twice into the same --json path and
# fails unless the file then holds one run's records: a single-bench run
# starts its --json file empty, as a suite run does.
#
#   cmake -DNCBENCH=<ncbench> -DOUT=<dir>
#         "-DARGS=--bench=ablation_collective --mode=collective --procs=2,4"
#         -P bench_json_replace.cmake
# ARGS is one string of space-separated ncbench flags.
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(MAKE_DIRECTORY "${OUT}")
set(json "${OUT}/run.json")
foreach(i RANGE 1 2)
  execute_process(COMMAND "${NCBENCH}" ${args} "--json=${json}"
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${i}: ncbench ${ARGS} exited ${rc}")
  endif()
  file(READ "${json}" text)
  string(REGEX MATCHALL "\\{\"schema\":\"pnc-bench-v1\"" records "${text}")
  list(LENGTH records n${i})
endforeach()
if(n1 EQUAL 0)
  message(FATAL_ERROR "ncbench ${ARGS} wrote no record to ${json}")
endif()
if(NOT n2 EQUAL n1)
  message(FATAL_ERROR
          "${json} holds ${n2} records after two runs, ${n1} after one")
endif()
message(STATUS "two runs of ncbench ${ARGS}: ${n2} records, one run's")
