# Integration script: ncverify tells a missing commit journal from an empty
# one, and both from a damaged one. ncgen writes no sidecar to disk, so its file has no journal and
# ncverify notes "(no commit journal)"; next to an empty <file>.nccommit the
# same file reports a journal that never committed, its header decoding
# even when it runs past 64 KiB.
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

# A header over 64 KiB beside an empty journal (a dataset that crashed after
# its first EndDef, before any journal commit) decodes too: ncverify reads
# past its first 64 KiB of the primary.
string(REPEAT "x" 102400 note)
file(WRITE ${WORK}/big.cdl "netcdf big {\ndimensions:\n\tx = 4 ;\n"
     "variables:\n\tint v(x) ;\n\n// global attributes:\n"
     "\t\t:note = \"${note}\" ;\n}\n")
execute_process(COMMAND ${NCGEN} -o big.nc big.cdl RESULT_VARIABLE rc
                WORKING_DIRECTORY ${WORK})
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ncgen big.cdl failed (${rc})")
endif()
file(TOUCH ${WORK}/big.nc.nccommit)
execute_process(COMMAND ${NCVERIFY} big.nc OUTPUT_VARIABLE out
                RESULT_VARIABLE rc WORKING_DIRECTORY ${WORK})
if(NOT rc EQUAL 0 OR NOT out MATCHES "journal empty; header decodes")
  message(FATAL_ERROR "large header, empty journal: rc=${rc}, output:\n${out}")
endif()

# A journal long enough to hold slots but without the magic lost what it
# committed: torn (exit 1), never "no journal".
string(REPEAT "x" 256 junk)
file(WRITE ${WORK}/j.nc.nccommit "${junk}")
execute_process(COMMAND ${NCVERIFY} j.nc OUTPUT_VARIABLE out
                RESULT_VARIABLE rc WORKING_DIRECTORY ${WORK})
if(NOT rc EQUAL 1 OR out MATCHES "no commit journal"
   OR NOT out MATCHES "journal magic damaged")
  message(FATAL_ERROR "damaged journal: rc=${rc}, output:\n${out}")
endif()
