# Runs a sweep driver at --threads=1 and --threads=4 and fails unless the
# two outputs are byte-identical -- the determinism contract of
# bench::parallel_map (each task seeds its own Rng; aggregation is ordered).
# The --report JSON is held to the same standard: metrics aggregation is
# commutative (sums, min/max, bucket bins) and hot tallies are drained by
# every worker, so the snapshot must not depend on the thread count.
# Two further legs repeat the run with --bounds=on at both thread counts:
# the certified bound sandwich only decides how OPT is found, never its
# value, and its tallies are execution-class metrics segregated out of
# reports, so stdout and report bytes must match the default (bound tier
# off) run too.
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

foreach(bounds_threads 1 4)
  set(report_bounds
    ${CMAKE_CURRENT_BINARY_DIR}/${driver_name}_report_bounds_t${bounds_threads}.json)
  execute_process(
    COMMAND ${DRIVER} ${args} --threads=${bounds_threads} --bounds=on
            --report=${report_bounds}
    OUTPUT_VARIABLE out_bounds
    RESULT_VARIABLE rc_bounds)
  if(NOT rc_bounds EQUAL 0)
    message(FATAL_ERROR
      "${DRIVER} --bounds=on --threads=${bounds_threads} exited with ${rc_bounds}")
  endif()
  if(NOT out_bounds STREQUAL out_single)
    message(FATAL_ERROR
      "driver output differs with --bounds=on at --threads=${bounds_threads}:\n"
      "--- bounds=off threads=1 ---\n${out_single}\n"
      "--- bounds=on threads=${bounds_threads} ---\n${out_bounds}")
  endif()
  file(READ ${report_bounds} json_bounds)
  if(NOT json_bounds STREQUAL json_single)
    message(FATAL_ERROR
      "--report JSON differs with --bounds=on at --threads=${bounds_threads}:\n"
      "--- bounds=off threads=1 ---\n${json_single}\n"
      "--- bounds=on threads=${bounds_threads} ---\n${json_bounds}")
  endif()
endforeach()

message(STATUS
  "driver output and report JSON byte-identical at 1 and 4 threads, "
  "bound tier off and on")
