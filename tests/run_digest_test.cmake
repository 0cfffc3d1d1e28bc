# Golden identity test: runs CMD (which must exit 0) and requires the
# SHA-256 of each file in OUTPUTS to equal the matching digest in
# EXPECT. On a mismatch it prints both digests and the command that
# regenerates them, and leaves the outputs in place.
#
# cmake "-DCMD=<prog>;<arg>;..." "-DOUTPUTS=<file>;..."
#       "-DEXPECT=<sha256>;..." -P run_digest_test.cmake

foreach(var CMD OUTPUTS EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_digest_test.cmake: -D${var}=... is required")
  endif()
endforeach()

list(LENGTH OUTPUTS n_out)
list(LENGTH EXPECT n_expect)
if(NOT n_out EQUAL n_expect)
  message(FATAL_ERROR "run_digest_test.cmake: ${n_out} OUTPUTS but "
                      "${n_expect} EXPECT digests")
endif()

file(REMOVE ${OUTPUTS})
execute_process(COMMAND ${CMD}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
string(REPLACE ";" " " cmd_line "${CMD}")
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "'${cmd_line}' exited ${rc}\n${out}${err}")
endif()

set(mismatch "")
math(EXPR last "${n_out} - 1")
foreach(i RANGE ${last})
  list(GET OUTPUTS ${i} path)
  list(GET EXPECT ${i} want)
  file(SHA256 ${path} got)
  if(NOT got STREQUAL want)
    string(APPEND mismatch "  ${path}\n    expected ${want}\n"
                           "    actual   ${got}\n")
  endif()
endforeach()
if(NOT mismatch STREQUAL "")
  string(REPLACE ";" " " outputs_line "${OUTPUTS}")
  message(FATAL_ERROR "golden digest mismatch:\n${mismatch}"
                      "regenerate with:\n  ${cmd_line}\n"
                      "  cmake -E sha256sum ${outputs_line}")
endif()
# The outputs are large; keep them only for a failing run.
file(REMOVE ${OUTPUTS})
