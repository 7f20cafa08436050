# Both JSON-reading CLIs turn hostile input into a parse error and exit 1:
# never a crash (200,000-deep nesting once overflowed the stack, exit 139)
# and never a pass (nan, hex and a malformed number token were once read
# as numbers).  Driven by the json_cli_bad_input CTest case with:
#   -DTRACE_TOOL=<lazyckpt-trace> -DGATE_TOOL=<lazyckpt-bench-gate>
#   -DBASELINE=<results/BENCH_sim_kernel.json> -DOUT_DIR=<scratch dir>

string(REPEAT "[" 200000 deep)

function(expect_parse_error name content)
  set(input "${OUT_DIR}/${name}.json")
  file(WRITE "${input}" "${content}")
  string(REPLACE "@INPUT@" "${input}" command "${ARGN}")
  execute_process(
    COMMAND ${command}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output)
  if(NOT status STREQUAL "1")
    message(FATAL_ERROR "${name}: expected exit 1, got ${status}:\n${output}")
  endif()
  string(FIND "${output}" "JSON error" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${name}: no parse error reported:\n${output}")
  endif()
endfunction()

set(event_head "{\"traceEvents\": [{\"name\": \"a\", \"ph\": \"i\", ")
set(event_head "${event_head}\"pid\": 1, \"tid\": 0")
expect_parse_error(trace_deep_args
  "${event_head}, \"ts\": 1, \"args\": {\"x\": ${deep}}}]}"
  "${TRACE_TOOL}" validate @INPUT@)
expect_parse_error(trace_nan_ts "${event_head}, \"ts\": nan}]}"
  "${TRACE_TOOL}" validate @INPUT@)
expect_parse_error(trace_hex_ts "${event_head}, \"ts\": 0x10}]}"
  "${TRACE_TOOL}" validate @INPUT@)

file(READ "${BASELINE}" committed)
string(REPLACE "\"bench\": \"micro_engine\","
  "\"bench\": \"micro_engine\", \"junk\": 1.2.3.4e5e-," junk "${committed}")
expect_parse_error(gate_junk_number "${junk}"
  "${GATE_TOOL}" --baseline "${BASELINE}" --fresh @INPUT@)
expect_parse_error(gate_deep "{\"bench\": \"micro_engine\", \"x\": ${deep}}"
  "${GATE_TOOL}" --baseline "${BASELINE}" --fresh @INPUT@)
expect_parse_error(cache_gate_deep "{\"warm\": ${deep}}"
  "${GATE_TOOL}" --cache --fresh @INPUT@)
message(STATUS "hostile JSON rejected with exit 1 by both CLIs")
