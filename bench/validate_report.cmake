# Test driver for the `validate-report` ctest: runs one bench binary at tiny
# scale with --json/--trace, checks both artifacts with report_lint, then
# requires the trace to show the bench's timed cells (`bench.cell`) and the
# kernel phases inside them (`kernel.*`).
# Expects -DBENCH=<path> -DLINT=<path> -DOUT=<dir>, and -DMETRICS=<bool>
# (a BFC_METRICS=OFF build records no spans; undefined means ON).
file(MAKE_DIRECTORY "${OUT}")
set(report "${OUT}/validate_report.json")
set(trace "${OUT}/validate_trace.json")

execute_process(
  COMMAND "${BENCH}" --scale 0.02 --reps 2 --json "${report}" --trace "${trace}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench failed (rc=${rc}):\n${out}\n${err}")
endif()

execute_process(
  COMMAND "${LINT}" --report "${report}" --trace "${trace}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "report_lint failed (rc=${rc}):\n${out}\n${err}")
endif()
message(STATUS "${out}")

if(DEFINED METRICS AND NOT METRICS)
  message(STATUS "BFC_METRICS=OFF build: trace is empty by design")
  return()
endif()
file(READ "${trace}" trace_json)
foreach(name "bench\\.cell" "kernel\\.[a-z_]+")
  if(NOT trace_json MATCHES "\"name\": *\"${name}\"")
    message(FATAL_ERROR "trace has no event named ${name}: ${trace}")
  endif()
endforeach()
