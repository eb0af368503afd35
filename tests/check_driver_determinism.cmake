# Runs a sweep driver at --threads=1 and --threads=4 and fails unless the
# two outputs are byte-identical -- the determinism contract of
# bench::parallel_map (each task seeds its own Rng; aggregation is ordered).
# The --report JSON is held to the same standard: metrics aggregation is
# commutative (sums, min/max, bucket bins) and hot tallies are drained by
# every worker, so the snapshot must not depend on the thread count.
# Invoked by ctest with -DDRIVER=<path-to-binary> [-DEXTRA_ARGS=...].
if(NOT DEFINED DRIVER)
  message(FATAL_ERROR "DRIVER not set")
endif()

set(args "")
if(DEFINED EXTRA_ARGS)
  separate_arguments(args UNIX_COMMAND "${EXTRA_ARGS}")
endif()

get_filename_component(driver_name ${DRIVER} NAME)
set(report_single ${CMAKE_CURRENT_BINARY_DIR}/${driver_name}_report_t1.json)
set(report_parallel ${CMAKE_CURRENT_BINARY_DIR}/${driver_name}_report_t4.json)

execute_process(
  COMMAND ${DRIVER} ${args} --threads=1 --report=${report_single}
  OUTPUT_VARIABLE out_single
  RESULT_VARIABLE rc_single)
execute_process(
  COMMAND ${DRIVER} ${args} --threads=4 --report=${report_parallel}
  OUTPUT_VARIABLE out_parallel
  RESULT_VARIABLE rc_parallel)

if(NOT rc_single EQUAL 0)
  message(FATAL_ERROR "${DRIVER} --threads=1 exited with ${rc_single}")
endif()
if(NOT rc_parallel EQUAL 0)
  message(FATAL_ERROR "${DRIVER} --threads=4 exited with ${rc_parallel}")
endif()
if(NOT out_single STREQUAL out_parallel)
  message(FATAL_ERROR
    "driver output differs between --threads=1 and --threads=4:\n"
    "--- threads=1 ---\n${out_single}\n"
    "--- threads=4 ---\n${out_parallel}")
endif()

file(READ ${report_single} json_single)
file(READ ${report_parallel} json_parallel)
if(NOT json_single STREQUAL json_parallel)
  message(FATAL_ERROR
    "--report JSON differs between --threads=1 and --threads=4:\n"
    "--- threads=1 ---\n${json_single}\n"
    "--- threads=4 ---\n${json_parallel}")
endif()

message(STATUS
  "driver output and report JSON byte-identical at 1 and 4 threads")
