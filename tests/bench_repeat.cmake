# Runs one ncbench command RUNS times and fails unless every --json output
# is byte-identical once the git_sha field is masked: the simulator is
# deterministic by construction, multi-aggregator runs included.
#
#   cmake -DNCBENCH=<ncbench> -DOUT=<dir> -DRUNS=3 "-DARGS=--suite=chaos"
#         -P bench_repeat.cmake
# ARGS is one string of space-separated ncbench flags.
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(MAKE_DIRECTORY "${OUT}")
set(first "")
foreach(i RANGE 1 ${RUNS})
  set(json "${OUT}/run${i}.json")
  execute_process(COMMAND "${NCBENCH}" ${args} "--json=${json}"
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${i}: ncbench ${ARGS} exited ${rc}")
  endif()
  file(READ "${json}" text)
  string(REGEX REPLACE "\"git_sha\":\"[^\"]*\"" "\"git_sha\":\"-\"" text
         "${text}")
  if(i EQUAL 1)
    set(first "${text}")
  elseif(NOT text STREQUAL first)
    message(FATAL_ERROR "run ${i} differs from run 1: see ${OUT}")
  endif()
endforeach()
message(STATUS "${RUNS} runs of ncbench ${ARGS}: byte-identical")
