# Code shape of the flat hot loop.  run_loop (src/sim/event_loop.hpp) is
# written as a set of local lambdas, and its speed depends on GCC inlining
# all of them but the rare failure path.  No timing gate sees a lambda
# fall out of line, so this test reads the compiled engine.cpp.o with
# `nm -C` instead.  Driven by the sim_hot_loop_shape CTest case (GCC 12
# Release builds only: the numbering and the inlining below were checked
# with GCC 12.2; before registering it for another version, build with
# that version and check the `nm -C` listing against this comment) with:
#   -DNM=<nm> -DOBJECTS=<lazyckpt_sim objects, '|'-separated>
#
# GCC numbers run_loop's lambdas in source order:
#   #1 pop_failure           #6 snapshot
#   #2 checkpoint_time_at    #7 commit_pending
#   #3 update_mtbf_field     #8 process_commit_before
#   #4 refresh_context       #9 restart_time_at
#   #5 truncate_at_budget   #10 handle_failure (register_failure nests in it)
# Expected: in every NoTiers (flat) instantiation, handle_failure is the
# only lambda kept out of line.  The tiered instantiations in
# hierarchy.cpp.o keep commit_pending (#7) out of line too; that is known
# and not checked here.  When event_loop.hpp adds, removes or reorders a
# lambda, renumber the list above and kAllowed below to match.

set(kAllowed "::{lambda()#10}::operator()() const")

string(REPLACE "|" ";" objects "${OBJECTS}")
list(FILTER objects INCLUDE REGEX "/engine\\.cpp\\.o(bj)?$")
list(LENGTH objects object_count)
if(NOT object_count EQUAL 1)
  message(FATAL_ERROR "expected one engine.cpp object, got: ${objects}")
endif()

execute_process(
  COMMAND "${NM}" -C "${objects}"
  RESULT_VARIABLE nm_status
  OUTPUT_VARIABLE symbols
  ERROR_VARIABLE nm_error)
if(NOT nm_status EQUAL 0)
  message(FATAL_ERROR "nm failed (${nm_status}): ${nm_error}")
endif()

string(REGEX MATCHALL "[^\n]*run_loop<[^\n]*NoTiers>[^\n]*" flat
       "${symbols}")
if(flat STREQUAL "")
  message(FATAL_ERROR
    "engine.cpp.o has no NoTiers run_loop symbol at all; if the loop is "
    "now fully inlined, update this test's expectation")
endif()

set(outlined "")
foreach(symbol IN LISTS flat)
  # What follows run_loop's parameter list names the lambda, if any.
  string(REGEX REPLACE "^.*NoTiers&\\)" "" tail "${symbol}")
  string(REGEX REPLACE "( \\[clone [^]]*\\])+$" "" tail "${tail}")
  if(tail MATCHES "lambda" AND NOT tail STREQUAL kAllowed)
    string(APPEND outlined "\n  ${symbol}")
  endif()
endforeach()
if(NOT outlined STREQUAL "")
  message(FATAL_ERROR
    "a flat run_loop lambda other than handle_failure is out of line:"
    "${outlined}")
endif()
message(STATUS "flat run_loop keeps only handle_failure out of line")
