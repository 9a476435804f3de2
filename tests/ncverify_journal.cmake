# Integration script: ncverify tells a missing commit journal from an empty
# one. ncgen writes no sidecar to disk, so its file has no journal and
# ncverify notes "(no commit journal)"; next to an empty <file>.nccommit the
# same file reports a journal that never committed.
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

execute_process(COMMAND ${NCGEN} -o j.nc ${CDL} RESULT_VARIABLE rc
                WORKING_DIRECTORY ${WORK})
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ncgen failed (${rc})")
endif()

execute_process(COMMAND ${NCVERIFY} j.nc OUTPUT_VARIABLE out
                RESULT_VARIABLE rc WORKING_DIRECTORY ${WORK})
if(NOT rc EQUAL 0 OR NOT out MATCHES "\\(no commit journal\\)")
  message(FATAL_ERROR "missing journal: rc=${rc}, output:\n${out}")
endif()

file(TOUCH ${WORK}/j.nc.nccommit)
execute_process(COMMAND ${NCVERIFY} j.nc OUTPUT_VARIABLE out
                RESULT_VARIABLE rc WORKING_DIRECTORY ${WORK})
if(NOT rc EQUAL 0 OR out MATCHES "no commit journal"
   OR NOT out MATCHES "journal empty; header decodes")
  message(FATAL_ERROR "empty journal: rc=${rc}, output:\n${out}")
endif()
