# Smoke test of one binary's command-line contract. Run as
#   cmake -DPROGRAM=<path> "-DGOOD_ARGS=--steps=200;--mbps=20"
#         -DBAD_FLAG=--stpes=200 [-DBAD_EXIT=2] [-DERROR_PREFIX=error:]
#         ["-DBAD_VALUES=--steps=-5;--mbps=abc"] -P cli_smoke.cmake
# With GOOD_ARGS it first runs PROGRAM with them and expects exit 0. It
# then runs PROGRAM with the misspelt BAD_FLAG alone and expects exit
# BAD_EXIT (default 2) and "<ERROR_PREFIX> unknown flag --<name>" on
# stderr. Last, PROGRAM runs once with each BAD_VALUES flag alone and must
# exit 2 with "error: " and the flag's name on stderr.
foreach(var PROGRAM BAD_FLAG)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED BAD_EXIT)
  set(BAD_EXIT 2)
endif()
if(NOT DEFINED ERROR_PREFIX)
  set(ERROR_PREFIX "error:")
endif()

if(DEFINED GOOD_ARGS)
  execute_process(COMMAND "${PROGRAM}" ${GOOD_ARGS}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} ${GOOD_ARGS}: exit ${code}, expected 0\n"
                        "${out}${err}")
  endif()
endif()

string(REGEX REPLACE "=.*" "" flag "${BAD_FLAG}")
execute_process(COMMAND "${PROGRAM}" "${BAD_FLAG}"
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL BAD_EXIT)
  message(FATAL_ERROR "${PROGRAM} ${BAD_FLAG}: exit ${code}, expected "
                      "${BAD_EXIT}\n${out}${err}")
endif()
string(FIND "${err}" "${ERROR_PREFIX} unknown flag ${flag} " at)
if(at EQUAL -1)
  message(FATAL_ERROR "${PROGRAM} ${BAD_FLAG}: stderr does not say "
                      "'${ERROR_PREFIX} unknown flag ${flag}'\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${PROGRAM} ${BAD_FLAG} printed to stdout before "
                      "rejecting the flag:\n${out}")
endif()

# Each bad value is a usage error, reported against its flag before any
# output.
foreach(arg IN LISTS BAD_VALUES)
  string(REGEX REPLACE "=.*" "" flag "${arg}")
  execute_process(COMMAND "${PROGRAM}" "${arg}"
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${PROGRAM} ${arg}: exit ${code}, expected 2\n"
                        "${out}${err}")
  endif()
  string(FIND "${err}" "error: " at_error)
  string(FIND "${err}" "${flag}" at_flag)
  if(at_error EQUAL -1 OR at_flag EQUAL -1)
    message(FATAL_ERROR "${PROGRAM} ${arg}: stderr does not name ${flag} "
                        "in an 'error: ' line\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${PROGRAM} ${arg} printed to stdout before "
                        "rejecting the value:\n${out}")
  endif()
endforeach()
