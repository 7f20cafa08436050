# Pin lazyckpt-run's stdout.  Each case below runs with --smoke --no-cache
# and must match its committed file in tools/run/golden/ byte for byte:
# the text table and --json for a flat, a tiered and a campaign scenario,
# --compare --json on two catalog scenarios, and --sweep --json over
# bench/scenarios/oci-grid.scn.sweep.  Driven by the run_output_golden
# CTest case with:
#   -DRUN_TOOL=<lazyckpt-run> -DGOLDEN_DIR=<tools/run/golden>
#   -DSWEEP_FILE=<oci-grid.scn.sweep> -DOUT_DIR=<scratch dir>
#
# A change meant to move this output re-records it: copy each actual file
# the failure names over its golden, and list the moved lines in the
# change description.

file(MAKE_DIRECTORY "${OUT_DIR}")
set(mismatched "")

function(check_output golden)
  set(actual "${OUT_DIR}/${golden}")
  execute_process(
    COMMAND "${RUN_TOOL}" --smoke --no-cache ${ARGN}
    RESULT_VARIABLE run_status
    OUTPUT_FILE "${actual}"
    ERROR_VARIABLE run_error)
  if(NOT run_status EQUAL 0)
    message(FATAL_ERROR
      "lazyckpt-run ${ARGN} failed (${run_status}):\n${run_error}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${actual}"
            "${GOLDEN_DIR}/${golden}"
    RESULT_VARIABLE compare_status)
  if(NOT compare_status EQUAL 0)
    set(mismatched "${mismatched}\n  ${actual} vs ${GOLDEN_DIR}/${golden}"
        PARENT_SCOPE)
  endif()
endfunction()

foreach(scenario IN ITEMS fig13 tier-mem3-exascale-100K campaign-week)
  check_output("${scenario}.txt" --name ${scenario})
  check_output("${scenario}.json" --json --name ${scenario})
endforeach()
check_output(compare-fig13-fig21.json --json --compare --name fig13
             --name fig21)
check_output(sweep-oci-grid.json --json --sweep "${SWEEP_FILE}")

if(NOT mismatched STREQUAL "")
  message(FATAL_ERROR "lazyckpt-run output moved:${mismatched}")
endif()
message(STATUS "lazyckpt-run output matches every golden")
