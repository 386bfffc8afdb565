# Runs the command given after `--` with --trace and --metrics pointed into
# OUT_DIR, and passes only if it exits 0, the trace parses as JSON with a
# non-empty traceEvents array, and the metrics CSV starts with its header.
#
#   cmake -DOUT_DIR=<dir> -P expect_obs_artifacts.cmake -- <tool> [args...]
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command OR NOT OUT_DIR)
  message(FATAL_ERROR
    "usage: cmake -DOUT_DIR=<dir> -P expect_obs_artifacts.cmake -- <tool> [args...]")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(trace "${OUT_DIR}/trace.json")
set(metrics "${OUT_DIR}/metrics.csv")
execute_process(COMMAND ${command} --trace=${trace} --metrics=${metrics}
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  list(JOIN command " " shown)
  message(FATAL_ERROR "${shown} exited ${code}, want 0\n${err}")
endif()

file(READ "${trace}" json)
string(JSON events ERROR_VARIABLE json_error LENGTH "${json}" traceEvents)
if(json_error)
  message(FATAL_ERROR "${trace} is not a Chrome trace: ${json_error}")
endif()
if(events EQUAL 0)
  message(FATAL_ERROR "${trace} holds no trace events")
endif()

file(STRINGS "${metrics}" header LIMIT_COUNT 1)
if(NOT header STREQUAL "kind,name,value")
  message(FATAL_ERROR "${metrics} does not start with the metrics CSV header")
endif()
message(STATUS "${events} trace events in ${trace}; metrics in ${metrics}")
