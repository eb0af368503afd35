# Bench smoke for the OPT cache. Two halves:
#
#  1. Run a tiny q01_query_engine. The driver enforces its own acceptance
#     bars internally (>= 5x fewer executed probes on the strong-lb family
#     with the cache on, nonzero cache hits from the canonical-fingerprint
#     collisions), so a non-zero exit here is the failure signal.
#  2. Run a sweep driver (e05) with --cache=off and --cache=on and require
#     byte-identical stdout AND --report JSON: cache state may only move
#     execution-class metrics, which snapshots segregate out of the report.
#
# Invoked by ctest with -DQ01=<path> -DDRIVER=<path-to-e05>.
if(NOT DEFINED Q01)
  message(FATAL_ERROR "Q01 not set")
endif()
if(NOT DEFINED DRIVER)
  message(FATAL_ERROR "DRIVER not set")
endif()

set(q01_out ${CMAKE_CURRENT_BINARY_DIR}/BENCH_query_smoke.json)
execute_process(
  COMMAND ${Q01} --levels=4 --repeats=2 --sweep-n=12 --trials=2
          --out=${q01_out}
  OUTPUT_VARIABLE q01_stdout
  RESULT_VARIABLE q01_rc)
if(NOT q01_rc EQUAL 0)
  message(FATAL_ERROR
    "q01_query_engine smoke failed (rc=${q01_rc}):\n${q01_stdout}")
endif()
if(NOT EXISTS ${q01_out})
  message(FATAL_ERROR "q01_query_engine did not write ${q01_out}")
endif()

set(report_off ${CMAKE_CURRENT_BINARY_DIR}/e05_report_cache_off.json)
set(report_on ${CMAKE_CURRENT_BINARY_DIR}/e05_report_cache_on.json)
execute_process(
  COMMAND ${DRIVER} --trials=2 --threads=1 --cache=off --report=${report_off}
  OUTPUT_VARIABLE out_off
  RESULT_VARIABLE rc_off)
execute_process(
  COMMAND ${DRIVER} --trials=2 --threads=1 --cache=on --report=${report_on}
  OUTPUT_VARIABLE out_on
  RESULT_VARIABLE rc_on)
if(NOT rc_off EQUAL 0)
  message(FATAL_ERROR "${DRIVER} --cache=off exited with ${rc_off}")
endif()
if(NOT rc_on EQUAL 0)
  message(FATAL_ERROR "${DRIVER} --cache=on exited with ${rc_on}")
endif()
if(NOT out_off STREQUAL out_on)
  message(FATAL_ERROR
    "driver output differs between --cache=off and --cache=on:\n"
    "--- cache=off ---\n${out_off}\n"
    "--- cache=on ---\n${out_on}")
endif()
file(READ ${report_off} json_off)
file(READ ${report_on} json_on)
if(NOT json_off STREQUAL json_on)
  message(FATAL_ERROR
    "--report JSON differs between --cache=off and --cache=on:\n"
    "--- cache=off ---\n${json_off}\n"
    "--- cache=on ---\n${json_on}")
endif()

# A rejected flag must fail fast with a clear message, like --threads 0.
execute_process(
  COMMAND ${Q01} --cache-capacity=0 --out=${q01_out}
  ERROR_VARIABLE bad_capacity_err
  RESULT_VARIABLE bad_capacity_rc)
if(bad_capacity_rc EQUAL 0)
  message(FATAL_ERROR "--cache-capacity=0 was accepted; it must be rejected")
endif()
if(NOT bad_capacity_err MATCHES "cache-capacity")
  message(FATAL_ERROR
    "--cache-capacity=0 rejection lacks a clear message:\n${bad_capacity_err}")
endif()

message(STATUS
  "q01 smoke passed; e05 stdout and report byte-identical cache on/off")
