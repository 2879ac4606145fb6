# Runs the command given after "--" and passes only when it stops with a
# usage error: exit code 2 and a message on stderr containing MESSAGE.
#
#   cmake -DMESSAGE=TEXT -P expect_usage_error.cmake -- PROGRAM [ARG...]
set(command)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()

execute_process(COMMAND ${command} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "exit ${rc}, want 2; stderr:\n${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks \"${MESSAGE}\":\n${err}")
endif()
