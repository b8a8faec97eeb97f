# Runs one rmsyn_cli command line and checks its exact exit code, so a
# crash or a sanitizer abort never passes for an expected failure.
#
#   cmake -DCLI=<path to rmsyn_cli> [-DEXIT=<code>] [-DMATCH=<regex>]
#         [-DFRESH=<file>] [-DPRODUCES=<file> -DSAME_AS=<file>]
#         -P cli_check.cmake -- <rmsyn_cli arguments...>
#
#   EXIT      expected exit code (default 0)
#   MATCH     regex the combined stdout + stderr must match
#   FRESH     file removed before the run (e.g. a journal the run appends to)
#   PRODUCES  file the run writes; it must be byte-identical to SAME_AS
if(NOT DEFINED CLI)
  message(FATAL_ERROR "cli_check: -DCLI=<rmsyn_cli> is required")
endif()
if(NOT DEFINED EXIT)
  set(EXIT 0)
endif()

set(args)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()

if(DEFINED FRESH)
  file(REMOVE "${FRESH}")
endif()

execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
string(JOIN " " shown ${args})
message("$ rmsyn_cli ${shown}\n${out}${err}")

if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "cli_check: exit '${rc}', expected ${EXIT}")
endif()
if(DEFINED MATCH AND NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "cli_check: output does not match '${MATCH}'")
endif()
if(DEFINED PRODUCES)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${PRODUCES}" "${SAME_AS}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "cli_check: ${PRODUCES} differs from ${SAME_AS}")
  endif()
endif()
