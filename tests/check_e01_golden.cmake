# Byte-compares e01_strong_lower_bound's default stdout with the committed
# golden file. e01 plays the Theorem 3 game against every opponent at every
# level on exact rationals whose denominators reach hundreds of bits, so
# any drift in BigInt/Rat arithmetic, fit-policy admission or the
# simulator changes a machine count, a job count or a row. Regenerate the
# golden file only for an intended change to e01's output.
# Invoked by ctest with -DE01=<path-to-binary> -DGOLDEN=<golden-file>.
foreach(var E01 GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} not set")
  endif()
endforeach()

execute_process(
  COMMAND ${E01}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${E01} exited with ${rc}")
endif()

file(READ ${GOLDEN} golden)
if(NOT out STREQUAL golden)
  message(FATAL_ERROR
    "e01 stdout differs from ${GOLDEN}:\n"
    "--- golden ---\n${golden}\n"
    "--- actual ---\n${out}")
endif()

message(STATUS "e01 stdout byte-identical to the golden file")
