# Malformed driver flags are usage errors: each command below must exit 2
# (not abort) and name the offending flag on stderr. Covers a number that
# does not span its token, an unknown flag, a value given after a space
# instead of after '=', two flags of the removed OPT cache and its disk
# tier, the removed runtime SIMD mode and the removed bound-tier switch (no
# driver reads these any more, so they are refused like any unknown flag
# rather than silently ignored).
#
# Invoked by ctest with -DE02=<path> -DF01=<path>.
foreach(var E02 F01)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} not set")
  endif()
endforeach()

# check(<flag named on stderr> <driver> <args...>)
function(check flag driver)
  execute_process(
    COMMAND ${driver} ${ARGN}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
    TIMEOUT 60)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${driver} ${ARGN} must exit 2, got '${rc}':\n${err}")
  endif()
  if(NOT err MATCHES "^error: .*${flag}")
    message(FATAL_ERROR
      "${driver} ${ARGN}: stderr does not name ${flag}:\n${err}")
  endif()
endfunction()

check(--trials ${E02} --trials=2x)
check(--bogus ${E02} --bogus=1)
check(--levels ${F01} --levels 3)
check(--cache ${E02} --cache=on)
check(--cache-file ${F01} --cache-file=x.mmcache)
check(--simd ${E02} --simd=scalar)
check(--bounds ${E02} --bounds=on)

message(STATUS "malformed flags exit 2 with the flag named")
