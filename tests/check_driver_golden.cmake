# Byte-compares a driver's stdout with its committed golden file.
# The canaries (tests/CMakeLists.txt) pin drivers whose output moves with
# any drift in the exact arithmetic they check: e01 plays the Theorem 3
# game on rationals whose denominators reach hundreds of bits, e02 checks
# Theorem 1's equality OPT = max union load on every enumerable instance,
# f01 lays out an optimal migratory schedule on the integer grid (and, at
# --levels=5, on the exact rational fallback), and e09, e10, e12 and e13
# drive the simulator's time grid through wake-ups, interactive reads and
# machine speeds. Regenerate a golden file only for an intended change to
# that driver's output.
# Invoked by ctest with -DDRIVER=<path-to-binary> -DGOLDEN=<golden-file>
# and, optionally, -DARGS=<driver flags> (a ;-list; default: none).
foreach(var DRIVER GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} not set")
  endif()
endforeach()

execute_process(
  COMMAND ${DRIVER} ${ARGS}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${DRIVER} ${ARGS} exited with ${rc}")
endif()

file(READ ${GOLDEN} golden)
if(NOT out STREQUAL golden)
  message(FATAL_ERROR
    "${DRIVER} ${ARGS} stdout differs from ${GOLDEN}:\n"
    "--- golden ---\n${golden}\n"
    "--- actual ---\n${out}")
endif()

message(STATUS "${DRIVER} ${ARGS} stdout byte-identical to the golden file")
