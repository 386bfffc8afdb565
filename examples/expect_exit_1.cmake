# Runs the command given after `--` and passes only if it exits with status 1,
# the tools' exit for input rejected at the boundary. WILL_FAIL would also pass
# an exit of 2 (a usage error elsewhere) or any other nonzero status.
#
#   cmake -P expect_exit_1.cmake -- <tool> [args...]
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
if(NOT command)
  message(FATAL_ERROR "usage: cmake -P expect_exit_1.cmake -- <tool> [args...]")
endif()
execute_process(COMMAND ${command} RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "1")
  list(JOIN command " " shown)
  message(FATAL_ERROR "${shown} exited ${code}, want 1\n${err}")
endif()
