# Bad-input check for fig_city, run via `cmake -P` from CTest: each
# invocation below must exit with status 2, print nothing on stdout and
# exactly one line, "fig_city: <reason>", on stderr; --help must print
# the options on stdout and exit 0.
#
# Input: BENCH (the fig_city binary).

set(bad_invocations
  "--mcs 9"
  "--sizes 0"
  "--sizes abc"
  "--subframes 0"
  "--epoch-us -5"
  "--epochs 3x")
foreach(invocation IN LISTS bad_invocations)
  separate_arguments(args UNIX_COMMAND "${invocation} --no-metrics")
  execute_process(
    COMMAND ${BENCH} ${args}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  string(REGEX MATCHALL "\n" newlines "${err}")
  list(LENGTH newlines n_lines)
  if(NOT result EQUAL 2 OR NOT out STREQUAL "" OR NOT n_lines EQUAL 1 OR
     NOT err MATCHES "^fig_city: ")
    message(FATAL_ERROR
      "fig_city ${invocation}: exit ${result}, stdout '${out}', "
      "stderr '${err}'; want exit 2, no stdout and one "
      "'fig_city: <reason>' line on stderr")
  endif()
endforeach()

execute_process(
  COMMAND ${BENCH} --help
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 60)
if(NOT result EQUAL 0 OR NOT out MATCHES "--sizes LIST" OR NOT err STREQUAL "")
  message(FATAL_ERROR
    "fig_city --help: exit ${result}, stderr '${err}'; want exit 0 and "
    "the options on stdout")
endif()
