# Runs the command after "--" and fails unless it exits with code EXIT and,
# when STDERR is non-empty, its stderr matches that regex. ctest by itself
# tells only zero from nonzero; accred_report's 0/1/2 contract needs the
# exact code.
#
#   cmake -DEXIT=2 -DSTDERR=regex -P expect_exit.cmake -- COMMAND ARGS...
set(cmd)
set(in_cmd FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_cmd)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(in_cmd TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc ERROR_VARIABLE err)
message("${err}")
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit code ${rc}, expected ${EXIT}")
endif()
if(NOT "${STDERR}" STREQUAL "" AND NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "stderr does not match \"${STDERR}\"")
endif()
