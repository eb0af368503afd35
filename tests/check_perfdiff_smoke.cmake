# End-to-end smoke test of the perfdiff regression sentinel (DESIGN.md
# §13): fixture comparisons exercise every exit path (0 = clean, 1 =
# regression, 2 = unstamped artifact), then a real double-run of the b01
# driver at smoke size must diff clean under the CI classes
# (--classes=count,identity -- deterministic per revision, so two runs of
# one binary are byte-comparable). b01 is the live driver because its
# enforced checks are count-based (probes eliminated, exact verdicts) and
# hold in every preset -- its wall-clock bar engages only at full size;
# o01's wall-clock speedup bar is machine- and dispatch-dependent at smoke
# sizes, so it runs only in CI's default-preset sentinel job.
# Invoked by ctest with -DPERFDIFF=<perfdiff> -DB01=<b01-binary>
# -DBASELINE/-DDEGRADED/-DUNSTAMPED=<fixture paths>.
foreach(var PERFDIFF B01 BASELINE DEGRADED UNSTAMPED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} not set")
  endif()
endforeach()

# Identical artifacts: zero regressions.
execute_process(
  COMMAND ${PERFDIFF} --baseline=${BASELINE} --candidate=${BASELINE}
  OUTPUT_VARIABLE out ERROR_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "identical artifacts should exit 0, got ${rc}:\n${out}")
endif()

# Degraded fixture (edge visits doubled, one opt changed): must trip.
execute_process(
  COMMAND ${PERFDIFF} --baseline=${BASELINE} --candidate=${DEGRADED}
  OUTPUT_VARIABLE out ERROR_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "degraded artifact should exit 1, got ${rc}:\n${out}")
endif()
if(NOT out MATCHES "REGRESSION")
  message(FATAL_ERROR "degraded diff should print REGRESSION lines:\n${out}")
endif()
if(NOT out MATCHES "fast_edge_visits")
  message(FATAL_ERROR "degraded diff should name fast_edge_visits:\n${out}")
endif()
if(NOT out MATCHES "opt")
  message(FATAL_ERROR "degraded diff should name the opt identity change:\n${out}")
endif()

# The identity change alone must still trip when counts are disabled.
execute_process(
  COMMAND ${PERFDIFF} --baseline=${BASELINE} --candidate=${DEGRADED}
          --classes=identity
  OUTPUT_QUIET ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "identity-only degraded diff should exit 1, got ${rc}")
endif()

# Unstamped artifact: refused outright (exit 2), never a clean pass.
execute_process(
  COMMAND ${PERFDIFF} --baseline=${BASELINE} --candidate=${UNSTAMPED}
  OUTPUT_QUIET ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "unstamped artifact should exit 2, got ${rc}")
endif()

# Malformed flags: usage error.
execute_process(
  COMMAND ${PERFDIFF} --baseline=${BASELINE}
  OUTPUT_QUIET ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "missing --candidate should exit 2, got ${rc}")
endif()

# Malformed tokens are refused the same way, with an error line naming the
# token or flag (Cli throws them from its constructor and from the number
# getters, before any artifact is read).
execute_process(
  COMMAND ${PERFDIFF} ${BASELINE} ${BASELINE}
  OUTPUT_VARIABLE out ERROR_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "bare file arguments should exit 2, got ${rc}:\n${out}")
endif()
string(FIND "${out}" "error: Cli: expected --key=value, got ${BASELINE}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "bare file arguments should print an error line naming the token:\n${out}")
endif()
execute_process(
  COMMAND ${PERFDIFF} --baseline=${BASELINE} --candidate=${BASELINE}
          --time-tol=abc
  OUTPUT_VARIABLE out ERROR_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--time-tol=abc should exit 2, got ${rc}:\n${out}")
endif()
if(NOT out MATCHES "error: [^\n]*--time-tol")
  message(FATAL_ERROR "--time-tol=abc should print an error line naming the flag:\n${out}")
endif()
# A class list that names no class would compare 0 metrics and pass.
execute_process(
  COMMAND ${PERFDIFF} --baseline=${BASELINE} --candidate=${DEGRADED}
          --classes=
  OUTPUT_VARIABLE out ERROR_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "an empty --classes should exit 2, got ${rc}:\n${out}")
endif()
if(NOT out MATCHES "error: [^\n]*--classes")
  message(FATAL_ERROR "an empty --classes should print an error line naming the flag:\n${out}")
endif()

# Real sentinel rehearsal: the same b01 binary run twice at smoke size must
# compare clean under the CI classes.
set(bench_a ${CMAKE_CURRENT_BINARY_DIR}/perfdiff_smoke_a.json)
set(bench_b ${CMAKE_CURRENT_BINARY_DIR}/perfdiff_smoke_b.json)
foreach(bench ${bench_a} ${bench_b})
  execute_process(
    COMMAND ${B01} --levels=4 --sweep-n=12 --trials=2 --out=${bench}
    OUTPUT_VARIABLE out ERROR_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${B01} exited with ${rc}:\n${out}")
  endif()
endforeach()
execute_process(
  COMMAND ${PERFDIFF} --baseline=${bench_a} --candidate=${bench_b}
          --classes=count,identity
  OUTPUT_VARIABLE out ERROR_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "b01 double-run should diff clean under count,identity (rc=${rc}):\n${out}")
endif()
message(STATUS "perfdiff sentinel validated")
