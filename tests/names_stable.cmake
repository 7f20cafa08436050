# Runs every gtest binary in TEST_BINARIES ("|"-separated) with
# --gtest_list_tests twice and fails if any binary lists different tests
# the second time.  ctest names embed the listed parameter values, so an
# unstable listing means test names that change from build to build.

string(REPLACE "|" ";" binaries "${TEST_BINARIES}")
set(unstable "")
foreach(binary IN LISTS binaries)
  foreach(pass first second)
    execute_process(COMMAND "${binary}" --gtest_list_tests
      OUTPUT_VARIABLE ${pass} RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "${binary} --gtest_list_tests exited ${status}")
    endif()
  endforeach()
  if(NOT first STREQUAL second)
    list(APPEND unstable "${binary}")
  endif()
endforeach()
if(unstable)
  list(JOIN unstable ", " unstable)
  message(FATAL_ERROR "test listings differ between two runs of: ${unstable}")
endif()
list(LENGTH binaries count)
message(STATUS "${count} gtest binaries list the same tests on two runs")
