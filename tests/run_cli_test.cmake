# Command-line contract test: runs CMD and requires exit code EXPECT_RC.
# With a non-empty SAME_AS, also runs that command (which must exit 0)
# and requires both stdouts to be byte-identical. With OUTPUT, the file
# CMD must write: it is deleted first, and afterwards its first line
# must equal OUTPUT_HEADER and OUTPUT_ROWS lines must follow.
#
# cmake "-DCMD=<prog>;<arg>;..." -DEXPECT_RC=<n>
#       ["-DSAME_AS=<prog>;<arg>;..."]
#       [-DOUTPUT=<file> -DOUTPUT_HEADER=<line> -DOUTPUT_ROWS=<n>]
#       -P run_cli_test.cmake

foreach(var CMD EXPECT_RC)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_cli_test.cmake: -D${var}=... is required")
  endif()
endforeach()

if(DEFINED OUTPUT)
  file(REMOVE "${OUTPUT}")
endif()

execute_process(COMMAND ${CMD}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR
          "'${CMD}' exited ${rc}, expected ${EXPECT_RC}\n${out}${err}")
endif()

if(NOT "${SAME_AS}" STREQUAL "")
  execute_process(COMMAND ${SAME_AS}
                  RESULT_VARIABLE ref_rc
                  OUTPUT_VARIABLE ref_out
                  ERROR_VARIABLE ref_err)
  if(NOT ref_rc STREQUAL "0")
    message(FATAL_ERROR "'${SAME_AS}' exited ${ref_rc}\n${ref_err}")
  endif()
  if(NOT out STREQUAL ref_out)
    message(FATAL_ERROR "stdout of '${CMD}' differs from '${SAME_AS}':\n"
                        "${out}\n--- vs ---\n${ref_out}")
  endif()
endif()

if(DEFINED OUTPUT)
  if(NOT EXISTS "${OUTPUT}")
    message(FATAL_ERROR "'${CMD}' did not write ${OUTPUT}")
  endif()
  file(STRINGS "${OUTPUT}" lines)
  list(LENGTH lines n)
  list(GET lines 0 header)
  math(EXPR rows "${n} - 1")
  if(NOT header STREQUAL "${OUTPUT_HEADER}" OR
     NOT rows EQUAL "${OUTPUT_ROWS}")
    message(FATAL_ERROR "${OUTPUT}: header '${header}' and ${rows} "
                        "row(s), expected '${OUTPUT_HEADER}' and "
                        "${OUTPUT_ROWS}")
  endif()
endif()
