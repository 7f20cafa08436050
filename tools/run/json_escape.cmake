# `lazyckpt-run --json` must print valid JSON for any scenario text: a
# title holding a tab is emitted as the two-character escape \t, never as
# a raw tab byte (which JSON forbids inside a string).  Driven by the
# run_json_escape CTest case with:
#   -DRUN_TOOL=<lazyckpt-run> -DOUT_DIR=<scratch dir>

set(scenario "${OUT_DIR}/tabbed-title.scn")
string(ASCII 9 tab)
file(WRITE "${scenario}"
  "name = tabbed-title\n"
  "title = before${tab}after\n"
  "distribution = weibull:mtbf=11,k=0.6\n"
  "storage = constant:beta=0.5\n"
  "policy = static-oci\n"
  "compute = 500\n"
  "replicas = 200\n"
  "seed = 42\n")

execute_process(
  COMMAND "${RUN_TOOL}" --json --smoke "${scenario}"
  RESULT_VARIABLE run_status
  OUTPUT_VARIABLE run_output
  ERROR_VARIABLE run_errors)
if(NOT run_status EQUAL 0)
  message(FATAL_ERROR
    "lazyckpt-run --json failed (${run_status}):\n${run_errors}")
endif()
string(FIND "${run_output}" "\"title\": \"before\\tafter\"" escaped)
if(escaped EQUAL -1)
  message(FATAL_ERROR
    "lazyckpt-run --json did not escape the tab as \\t:\n${run_output}")
endif()
string(FIND "${run_output}" "${tab}" raw_tab)
if(NOT raw_tab EQUAL -1)
  message(FATAL_ERROR
    "lazyckpt-run --json printed a raw tab byte:\n${run_output}")
endif()
message(STATUS "tab in title escaped as \\t")
