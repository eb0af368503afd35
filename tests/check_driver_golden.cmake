# Byte-compares a driver's default stdout with its committed golden file.
# The canaries (tests/CMakeLists.txt) pin drivers whose output moves with
# any drift in the exact arithmetic they check: e01 plays the Theorem 3
# game on rationals whose denominators reach hundreds of bits, and e02
# checks Theorem 1's equality OPT = max union load on every enumerable
# instance. Regenerate a golden file only for an intended change to that
# driver's output.
# Invoked by ctest with -DDRIVER=<path-to-binary> -DGOLDEN=<golden-file>.
foreach(var DRIVER GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} not set")
  endif()
endforeach()

execute_process(
  COMMAND ${DRIVER}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${DRIVER} exited with ${rc}")
endif()

file(READ ${GOLDEN} golden)
if(NOT out STREQUAL golden)
  message(FATAL_ERROR
    "${DRIVER} stdout differs from ${GOLDEN}:\n"
    "--- golden ---\n${golden}\n"
    "--- actual ---\n${out}")
endif()

message(STATUS "${DRIVER} stdout byte-identical to the golden file")
