# Pins the all-pairs DP's candidate counts (ctest `cdf_engine_counts`):
# runs `odtn cdf --max-hops 8 --threads 1` on the generated infocom05
# seed-7 trace, over the whole span and over day-time windows, and
# compares each `engine:` line (contacts examined, pairs kept, pairs
# dominated, past horizon) with its pinned value. A change to which
# candidates the engine offers moves these counts even when every
# frontier, and so every CDF, stays the same.
#
#   cmake -DODTN=<odtn executable> -DWORK_DIR=<scratch directory>
#         -P cdf_engine_counts.cmake
#
# A change that moves a count on purpose updates the pinned line and
# says why in CHANGES.md.
foreach(var ODTN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cdf_engine_counts.cmake: ${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace "${WORK_DIR}/infocom05_seed7.trace")
execute_process(
  COMMAND "${ODTN}" generate --preset infocom05 --seed 7 --out "${trace}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "odtn generate failed (${rc})")
endif()

set(whole_args)
set(whole_want "engine: 38205246 contact extensions, 942456 pairs kept, 23272513 dominated, 0 past horizon")
set(daytime_args --daytime 9-18)
set(daytime_want "engine: 37996574 contact extensions, 934842 pairs kept, 23150084 dominated, 0 past horizon")

set(failed 0)
foreach(run whole daytime)
  execute_process(
    COMMAND "${ODTN}" cdf "${trace}" --max-hops 8 --threads 1 ${${run}_args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "odtn cdf (${run}) failed (${rc})")
  endif()
  string(REGEX MATCH "engine:[^\n]*" got "${out}")
  if(got STREQUAL "${${run}_want}")
    message(STATUS "${run}: ${got}")
  else()
    message(SEND_ERROR "${run}: engine counts moved\n  want: ${${run}_want}\n  got:  ${got}")
    set(failed 1)
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "cdf_engine_counts: pinned counts differ")
endif()
