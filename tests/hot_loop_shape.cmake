# Code shape of the event loop.  One iteration, step() in
# src/sim/event_loop.hpp, is a set of function templates over a run-state
# accessor, and the loop's speed depends on every piece of it being
# inlined into the loop that runs it — except the rare failure path.  No
# timing gate sees a helper fall out of line, so this test reads the
# compiled objects with `nm -C` instead.  Driven by the sim_hot_loop_shape
# CTest case (GCC 12 Release builds only: the inlining below was checked
# with GCC 12.2; before registering it for another version, build with
# that version and check the `nm -C` listing against this comment) with:
#   -DNM=<nm> -DOBJECTS=<lazyckpt_sim objects, '|'-separated>
#
# Checked objects and what each may keep out of line from the shared loop
# code (the event_loop.hpp templates and the accessors):
#   engine.cpp.o     flat run_loop instances and handle_failure
#   hierarchy.cpp.o  tiered run_loop instances and handle_failure
#   batch.cpp.o      handle_failure only; step must be inlined into every
#                    BatchKernel::run_rounds instance and step_thunk
# Also allowed anywhere: dispatch, timeline_capacity, the telemetry structs
# and RunState's constructor and destructor, none of which runs per event.
# Any other function from the shared code — step, commit, commit_pending,
# process_commit_before, truncate_at_budget, register_failure, live,
# finish, or a RunState / BatchKernel::Slot member — fails the test.

set(kShared "lazyckpt::sim::detail::{anon}::")
set(kAllowed
  "${kShared}run_loop"
  "${kShared}handle_failure"
  "${kShared}dispatch"
  "${kShared}timeline_capacity"
  "${kShared}RunState::RunState"
  "${kShared}RunState::~RunState")

# The qualified name of the function an `nm -C` text symbol defines:
# template arguments, the parameter list and the return type stripped.
function(function_name symbol out)
  string(REGEX REPLACE "^[0-9a-fA-F]* *[tTwW] " "" name "${symbol}")
  string(REPLACE "(anonymous namespace)" "{anon}" name "${name}")
  set(previous "")
  while(NOT name STREQUAL previous)
    set(previous "${name}")
    string(REGEX REPLACE "<[^<>]*>" "" name "${name}")
  endwhile()
  string(REGEX REPLACE "\\(.*$" "" name "${name}")
  string(REGEX REPLACE "^.* " "" name "${name}")
  set(${out} "${name}" PARENT_SCOPE)
endfunction()

string(REPLACE "|" ";" all_objects "${OBJECTS}")
set(failures "")
foreach(unit engine hierarchy batch)
  set(objects ${all_objects})
  list(FILTER objects INCLUDE REGEX "/${unit}\\.cpp\\.o(bj)?$")
  list(LENGTH objects object_count)
  if(NOT object_count EQUAL 1)
    message(FATAL_ERROR "expected one ${unit}.cpp object, got: ${objects}")
  endif()

  execute_process(
    COMMAND "${NM}" -C "${objects}"
    RESULT_VARIABLE nm_status
    OUTPUT_VARIABLE symbols
    ERROR_VARIABLE nm_error)
  if(NOT nm_status EQUAL 0)
    message(FATAL_ERROR "nm failed (${nm_status}): ${nm_error}")
  endif()

  string(REGEX MATCHALL "[0-9a-fA-F]+ [tTwW] [^\n]*" text "${symbols}")
  set(seen "")
  foreach(symbol IN LISTS text)
    function_name("${symbol}" name)
    list(APPEND seen "${name}")
    set(slot "lazyckpt::sim::\\{anon\\}::BatchKernel::Slot::")
    if(NOT name MATCHES "^(lazyckpt::sim::detail::\\{anon\\}::|${slot})")
      continue()
    endif()
    set(allowed FALSE)
    foreach(prefix IN LISTS kAllowed)
      if(name STREQUAL prefix)
        set(allowed TRUE)
      endif()
    endforeach()
    if(name MATCHES "^lazyckpt::sim::detail::\\{anon\\}::(Engine|Trial)Metrics")
      set(allowed TRUE)
    endif()
    if(NOT allowed)
      string(APPEND failures "\n  ${unit}.cpp.o: ${symbol}")
    endif()
  endforeach()

  # Guard against checking nothing: each object must still define the
  # function the loop lives in.
  if(unit STREQUAL "batch")
    set(anchor "lazyckpt::sim::{anon}::BatchKernel::step_thunk")
  else()
    set(anchor "${kShared}run_loop")
  endif()
  list(FIND seen "${anchor}" anchor_index)
  if(anchor_index EQUAL -1)
    message(FATAL_ERROR
      "${unit}.cpp.o defines no ${anchor}; if the loop moved or is now "
      "fully inlined, update this test's expectation")
  endif()
endforeach()

if(NOT failures STREQUAL "")
  message(FATAL_ERROR
    "a piece of the shared event-loop step other than handle_failure is "
    "out of line:${failures}")
endif()
message(STATUS "engine, hierarchy and batch keep only handle_failure out "
               "of line")
