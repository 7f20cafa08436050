# Run one bench or example binary with no arguments (benches at full size)
# and require the SHA-256 of its stdout to equal the committed digest: any
# moved digit of the printed output fails here.  Driven by the
# e2e_<name>_stdout CTest cases with:
#   -DBENCH_BIN=<binary> -DEXPECTED=<sha256 hex>
# Re-record a digest only for a change meant to move that figure, and say
# so in the change description.

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env --unset=LAZYCKPT_BENCH_SMOKE "${BENCH_BIN}"
  RESULT_VARIABLE bench_status
  OUTPUT_VARIABLE bench_output
  ERROR_VARIABLE bench_error)
if(NOT bench_status EQUAL 0)
  message(FATAL_ERROR "${BENCH_BIN} failed (${bench_status}):\n${bench_error}")
endif()
string(SHA256 actual "${bench_output}")
if(NOT actual STREQUAL EXPECTED)
  message(FATAL_ERROR
    "${BENCH_BIN} stdout digest ${actual}, want ${EXPECTED}:\n"
    "${bench_output}")
endif()
message(STATUS "${BENCH_BIN} stdout matches its digest")
