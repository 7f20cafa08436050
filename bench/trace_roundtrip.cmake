# Run a bench binary with LAZYCKPT_TRACE, then validate the emitted trace.
# Driven by the bench_smoke_trace_roundtrip CTest case with:
#   -DBENCH_BIN=<bench executable> -DTRACE_TOOL=<lazyckpt-trace>
#   -DTRACE_FILE=<output path>

file(REMOVE "${TRACE_FILE}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "LAZYCKPT_TRACE=${TRACE_FILE}"
          "${BENCH_BIN}"
  RESULT_VARIABLE bench_status
  OUTPUT_VARIABLE bench_output
  ERROR_VARIABLE bench_output)
if(NOT bench_status EQUAL 0)
  message(FATAL_ERROR
    "bench binary failed (${bench_status}) under LAZYCKPT_TRACE:\n"
    "${bench_output}")
endif()

if(NOT EXISTS "${TRACE_FILE}")
  message(FATAL_ERROR "bench run left no trace file at ${TRACE_FILE}")
endif()

execute_process(
  COMMAND "${TRACE_TOOL}" validate "${TRACE_FILE}"
  RESULT_VARIABLE validate_status
  OUTPUT_VARIABLE validate_output
  ERROR_VARIABLE validate_output)
if(NOT validate_status EQUAL 0)
  message(FATAL_ERROR
    "lazyckpt-trace validate rejected ${TRACE_FILE}:\n${validate_output}")
endif()
message(STATUS "${validate_output}")

# The profile must not be empty: a trace-enabled sweep records at least
# the run_replicas span.  `export` lists every complete span, so the check
# does not depend on where that span ranks by self time.
execute_process(
  COMMAND "${TRACE_TOOL}" export "${TRACE_FILE}"
  RESULT_VARIABLE export_status
  OUTPUT_VARIABLE export_output)
if(NOT export_status EQUAL 0)
  message(FATAL_ERROR "lazyckpt-trace export failed on ${TRACE_FILE}")
endif()
string(FIND "${export_output}" "sim.run_replicas" has_span)
if(has_span EQUAL -1)
  message(FATAL_ERROR
    "trace export lacks the sim.run_replicas span:\n${export_output}")
endif()
message(STATUS "trace round trip OK")
