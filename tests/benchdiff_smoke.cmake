# Smoke test for axiomcc-benchdiff's two-ledger mode. Run as
#   cmake -DBENCHDIFF=<path to axiomcc-benchdiff> -DWORK_DIR=<work dir>
#         -P benchdiff_smoke.cmake
# It writes three one-record ledgers and checks the exit codes: identical
# records compare clean (0), a changed deterministic counter is a
# regression (1), and a misspelt flag is a usage error (2).
foreach(var BENCHDIFF WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(ledger_line out ticks)
  set(${out} "{\"schema_version\":2,\"timestamp_utc\":\"2026-08-06T00:00:00Z\",\"bench\":\"table1\",\"git_sha\":\"0123456789abcdef0123456789abcdef01234567\",\"build_flavor\":\"Release\",\"backend\":\"fluid\",\"jobs\":2,\"hardware_jobs\":4,\"total_seconds\":0.5,\"phases\":{\"build_table1\":0.5},\"counters\":{\"cells\":6,\"cells_per_sec\":12},\"deterministic_counters\":{\"fluid.ticks\":${ticks}}}\n" PARENT_SCOPE)
endfunction()

ledger_line(base 1000)
ledger_line(changed 1001)
file(WRITE "${WORK_DIR}/baseline.jsonl" "${base}")
file(WRITE "${WORK_DIR}/same.jsonl" "${base}")
file(WRITE "${WORK_DIR}/changed.jsonl" "${changed}")

function(expect_exit expected current)
  execute_process(
    COMMAND "${BENCHDIFF}" --no-spark "${WORK_DIR}/baseline.jsonl"
            "${WORK_DIR}/${current}"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL expected)
    message(FATAL_ERROR "benchdiff baseline vs ${current}: exit ${code}, "
                        "expected ${expected}\n${out}${err}")
  endif()
endfunction()

expect_exit(0 same.jsonl)
expect_exit(1 changed.jsonl)

# A misspelt flag is a usage error (exit 2) that names the flag.
execute_process(
  COMMAND "${BENCHDIFF}" --windw=3 "${WORK_DIR}/baseline.jsonl"
          "${WORK_DIR}/same.jsonl"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "unknown flag --windw " at)
if(NOT code EQUAL 2 OR at EQUAL -1)
  message(FATAL_ERROR "benchdiff --windw=3: exit ${code}, expected 2 naming "
                      "the flag\n${out}${err}")
endif()
