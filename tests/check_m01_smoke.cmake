# Bench smoke for the memory substrate driver. Two halves:
#
#  1. Run a tiny m01_memory_substrate. The driver enforces its own checks
#     (e04/e05 registry-silent, byte-identical skewed sweep at 1 and 4
#     workers, stealing below 0.75x static ranges on the edge-visit
#     makespan model), so a non-zero exit here is the failure signal.
#  2. --sweep-n below 4 must be refused with exit 2 and a diagnostic naming
#     the flag. The TIMEOUT turns a hang (e04's doubling sweep starting at
#     n = 0) into a failure instead of a stuck test.
#
# Invoked by ctest with -DM01=<path>.
if(NOT DEFINED M01)
  message(FATAL_ERROR "M01 not set")
endif()

set(m01_out ${CMAKE_CURRENT_BINARY_DIR}/BENCH_memory_smoke.json)
execute_process(
  COMMAND ${M01} --levels=4 --sweep-n=24 --trials=1 --out=${m01_out}
  OUTPUT_VARIABLE m01_stdout
  ERROR_VARIABLE m01_stderr
  RESULT_VARIABLE m01_rc)
if(NOT m01_rc EQUAL 0)
  message(FATAL_ERROR
    "m01_memory_substrate smoke failed (rc=${m01_rc}):\n"
    "${m01_stdout}\n${m01_stderr}")
endif()
if(NOT EXISTS ${m01_out})
  message(FATAL_ERROR "m01_memory_substrate did not write ${m01_out}")
endif()

execute_process(
  COMMAND ${M01} --sweep-n=3 --out=${m01_out}
  ERROR_VARIABLE bad_sweep_err
  RESULT_VARIABLE bad_sweep_rc
  TIMEOUT 30)
if(NOT bad_sweep_rc STREQUAL "2")
  message(FATAL_ERROR
    "--sweep-n=3 must exit 2, got '${bad_sweep_rc}':\n${bad_sweep_err}")
endif()
if(NOT bad_sweep_err MATCHES "sweep-n")
  message(FATAL_ERROR
    "--sweep-n=3 rejection lacks a clear message:\n${bad_sweep_err}")
endif()

message(STATUS "m01 smoke passed; --sweep-n=3 refused")
