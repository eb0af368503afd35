# Byte-compares a driver's stdout, its --report JSON, or both with
# committed golden files.
# The canaries (tests/CMakeLists.txt) pin drivers whose output moves with
# any drift in the exact arithmetic they check: e01 plays the Theorem 3
# game on rationals whose denominators reach hundreds of bits (its report
# also records, in the adversary.den_bits histogram, the denominator of
# every level's scale), e02 checks Theorem 1's equality OPT = max union
# load on every enumerable instance, f01 lays out an optimal migratory
# schedule on the integer grid (and, at --levels=5, on the exact rational
# fallback), and e09, e10, e12 and e13 drive the simulator's time grid
# through wake-ups, interactive reads and machine speeds. Regenerate a
# golden file only for an intended change to that driver's output.
# Invoked by ctest with -DDRIVER=<path-to-binary>, -DGOLDEN=<stdout golden
# file> and/or -DREPORT_GOLDEN=<report golden file> together with
# -DREPORT=<where the driver writes its report>, and, optionally,
# -DARGS=<driver flags> (a ;-list; default: none).
if(NOT DEFINED DRIVER)
  message(FATAL_ERROR "DRIVER not set")
endif()
if(NOT DEFINED GOLDEN AND NOT DEFINED REPORT_GOLDEN)
  message(FATAL_ERROR "neither GOLDEN nor REPORT_GOLDEN set")
endif()
if(DEFINED REPORT_GOLDEN)
  if(NOT DEFINED REPORT)
    message(FATAL_ERROR "REPORT_GOLDEN set without REPORT")
  endif()
  file(REMOVE ${REPORT})
  list(APPEND ARGS --report=${REPORT})
endif()

execute_process(
  COMMAND ${DRIVER} ${ARGS}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${DRIVER} ${ARGS} exited with ${rc}")
endif()

if(DEFINED GOLDEN)
  file(READ ${GOLDEN} golden)
  if(NOT out STREQUAL golden)
    message(FATAL_ERROR
      "${DRIVER} ${ARGS} stdout differs from ${GOLDEN}:\n"
      "--- golden ---\n${golden}\n"
      "--- actual ---\n${out}")
  endif()
  message(STATUS "${DRIVER} ${ARGS} stdout byte-identical to ${GOLDEN}")
endif()

if(DEFINED REPORT_GOLDEN)
  if(NOT EXISTS ${REPORT})
    message(FATAL_ERROR "${DRIVER} ${ARGS} wrote no report")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${REPORT} ${REPORT_GOLDEN}
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    file(READ ${REPORT_GOLDEN} golden)
    file(READ ${REPORT} actual)
    message(FATAL_ERROR
      "${DRIVER} ${ARGS} report differs from ${REPORT_GOLDEN}:\n"
      "--- golden ---\n${golden}\n"
      "--- actual ---\n${actual}")
  endif()
  message(STATUS
    "${DRIVER} ${ARGS} report byte-identical to ${REPORT_GOLDEN}")
endif()
