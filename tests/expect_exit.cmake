# Run a command and require a specific exit code (ctest only checks for
# zero).  Usage:
#   cmake -DEXPECT=2 -P expect_exit.cmake -- <program> [args...]
# A crash (e.g. SIGABRT) yields a non-numeric result and fails too.
set(cmd)
set(after_sep FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_sep)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_sep TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit ${rc}, expected ${EXPECT}: ${cmd}\n${err}")
endif()
