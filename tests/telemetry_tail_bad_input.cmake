# Bad-input check for telemetry_tail, run via `cmake -P` from CTest: each
# numeric flag below carries a value that is not a whole number of its
# kind (trailing characters, a sign on a count, out of range), and each
# invocation must exit with status 2, print nothing on stdout and exactly
# "telemetry_tail: <flag>: '<value>' is not a number" on stderr.
#
# Input: TOOL (the telemetry_tail binary).

set(bad_invocations
  "--interval-ms 12abc"
  "--interval-ms 200ms"
  "--expect-metrics 12abc"
  "--expect-metrics -1"
  "--expect-metrics 18446744073709551616"
  "--timeout-s 2s"
  "--timeout-s 1e999")
foreach(invocation IN LISTS bad_invocations)
  separate_arguments(args UNIX_COMMAND "${invocation}")
  list(GET args 0 flag)
  list(GET args 1 value)
  execute_process(
    COMMAND ${TOOL} ${args} unused.jsonl
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  set(want "telemetry_tail: ${flag}: '${value}' is not a number\n")
  if(NOT result EQUAL 2 OR NOT out STREQUAL "" OR NOT err STREQUAL "${want}")
    message(FATAL_ERROR
      "telemetry_tail ${invocation}: exit ${result}, stdout '${out}', "
      "stderr '${err}'; want exit 2, no stdout and '${want}' on stderr")
  endif()
endforeach()
