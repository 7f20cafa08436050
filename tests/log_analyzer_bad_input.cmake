# log_analyzer turns bad input into an exit status, never an abort: an
# unreadable log exits 1 with "log_analyzer: <error>" (it once ended in
# std::terminate, exit 134), and a size or bandwidth that is not a whole
# finite number > 0 prints the usage and exits 2 ("abc" once aborted,
# "5x" once ran as 5 GB).  Driven by the log_analyzer_bad_input CTest case
# with:
#   -DANALYZER=<log_analyzer>

function(expect_status name want)
  execute_process(
    COMMAND "${ANALYZER}" ${ARGN}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE output
    ERROR_VARIABLE error)
  if(NOT status STREQUAL want)
    message(FATAL_ERROR
      "${name}: expected exit ${want}, got ${status}:\n${output}${error}")
  endif()
  set(last_error "${error}" PARENT_SCOPE)
endfunction()

expect_status(missing_log 1 /nonexistent-lazyckpt-dir/failures.csv)
string(FIND "${last_error}" "log_analyzer: " found)
if(NOT found EQUAL 0)
  message(FATAL_ERROR "missing_log: error not reported:\n${last_error}")
endif()

expect_status(size_not_a_number 2 --demo abc)
expect_status(size_trailing_bytes 2 --demo 5x)
expect_status(bandwidth_zero 2 --demo 5000 0)
string(FIND "${last_error}" "usage: log_analyzer" found)
if(found EQUAL -1)
  message(FATAL_ERROR "bandwidth_zero: no usage printed:\n${last_error}")
endif()
message(STATUS "log_analyzer: unreadable log exits 1, "
  "malformed size or bandwidth exits 2")
