# Short-run check of bench_ablation's synchronization table. Run as
#   cmake -DABLATION=<path to bench_ablation> -DWORK_DIR=<work dir>
#         -P ablation_smoke.cmake
# At --duration=1 the scored tail starts at 0.5 s, so the second Reno of
# the 1 s and 3 s rows would start too late to be scored: those rows must
# print "not scored", the 0 s and 0.25 s rows a fairness figure, and the
# ledger's cells counter must count only the 14 cells that ran.
foreach(var ABLATION WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(COMMAND "${ABLATION}" --steps=200 --duration=1 --jobs=1
                        --out=${WORK_DIR}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "bench_ablation --duration=1: exit ${code}\n${out}${err}")
endif()

foreach(offset 0.00s 0.25s)
  if(NOT out MATCHES "\\| ${offset} +\\| [0-9]\\.[0-9]+ +\\|")
    message(FATAL_ERROR "the ${offset} row is not scored:\n${out}")
  endif()
endforeach()
foreach(offset 1.00s 3.00s)
  if(NOT out MATCHES "\\| ${offset} +\\| not scored +\\| - +\\| - +\\|")
    message(FATAL_ERROR "the ${offset} row is scored:\n${out}")
  endif()
endforeach()

file(READ "${WORK_DIR}/ledger.jsonl" ledger)
if(NOT ledger MATCHES "\"counters\":{\"cells\":14,")
  message(FATAL_ERROR "expected cells == 14 in the ledger record:\n${ledger}")
endif()
