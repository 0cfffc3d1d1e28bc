# Golden-file test for catnap_lint's SARIF output. Runs the linter on a
# fixture from the lint source directory (so artifact URIs stay
# relative and machine-independent) and byte-compares the log against
# the checked-in golden file.
#
# cmake -DLINT=<catnap_lint> -DSRC_DIR=<tools/lint> -DRULE=<L4>
#       -DFIXTURE=<fixtures/x.cc> -DOUT=<build/x.sarif>
#       -DGOLDEN=<fixtures/golden_x.sarif> -P run_sarif_test.cmake

foreach(var LINT SRC_DIR RULE FIXTURE OUT GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_sarif_test.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND "${LINT}" --rules "${RULE}" --expect "${RULE}"
          --sarif "${OUT}" "${FIXTURE}"
  WORKING_DIRECTORY "${SRC_DIR}"
  RESULT_VARIABLE lint_rc
  OUTPUT_VARIABLE lint_out
  ERROR_VARIABLE lint_err)
if(NOT lint_rc EQUAL 0)
  message(FATAL_ERROR
          "catnap_lint exited ${lint_rc}\n${lint_out}${lint_err}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}" "${GOLDEN}"
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
          "SARIF output ${OUT} differs from golden ${GOLDEN}")
endif()
