# Run a command and require its exit code (and, with MATCH, a regex
# over its combined stdout and stderr):
#
#   cmake -DEXPECT=<code> [-DMATCH=<regex>] -P expect_exit.cmake \
#         CMD ARGS...
#
# ctest itself only tells zero from non-zero; the report tools' exit
# codes are a contract (csp diff: 0 clean, 1 drift, 2 timing, 3 error).

set(command)
set(after_script FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_script)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "-P")
        math(EXPR script_index "${i} + 1")
    elseif(DEFINED script_index AND i EQUAL script_index)
        set(after_script TRUE)
    endif()
endforeach()
if(NOT command)
    message(FATAL_ERROR "expect_exit.cmake: no command given")
endif()

execute_process(COMMAND ${command}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output)
message("${output}")
if(NOT code STREQUAL "${EXPECT}")
    message(FATAL_ERROR "exit code ${code}, expected ${EXPECT}")
endif()
if(DEFINED MATCH AND NOT output MATCHES "${MATCH}")
    message(FATAL_ERROR "output does not match '${MATCH}'")
endif()
