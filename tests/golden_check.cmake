# Output-pin check, run via `cmake -P` from CTest (label `golden`).
#
# Inputs: BENCH (bench binary), ARGS (its arguments, one space-separated
# string), PIN (checked-in expected stdout under tests/golden/), OUT
# (where this run's stdout is written, in the build tree).
#
# Runs the bench, requires exit 0, and byte-compares its stdout with the
# pin. On a mismatch OUT holds the new output, so a deliberate
# re-baseline is `cp <build>/tests/golden/*.txt tests/golden/`.

separate_arguments(args UNIX_COMMAND "${ARGS}")
get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")

execute_process(
  COMMAND ${BENCH} ${args}
  WORKING_DIRECTORY "${out_dir}"
  RESULT_VARIABLE result
  OUTPUT_FILE "${OUT}"
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "golden: ${BENCH} ${ARGS} exited ${result}:\n${stderr}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${PIN}" "${OUT}"
  RESULT_VARIABLE differs)
if(differs)
  # Name the first line that moved; the full output is in OUT.
  file(STRINGS "${PIN}" want)
  file(STRINGS "${OUT}" got)
  list(LENGTH want n_want)
  list(LENGTH got n_got)
  set(line 0)
  while(line LESS n_want AND line LESS n_got)
    list(GET want ${line} w)
    list(GET got ${line} g)
    if(NOT w STREQUAL g)
      break()
    endif()
    math(EXPR line "${line} + 1")
  endwhile()
  math(EXPR shown "${line} + 1")
  if(line LESS n_want)
    list(GET want ${line} w)
  else()
    set(w "<end of pin>")
  endif()
  if(line LESS n_got)
    list(GET got ${line} g)
  else()
    set(g "<end of output>")
  endif()
  message(FATAL_ERROR
    "golden: stdout differs from ${PIN} at line ${shown}\n"
    "  pin:    ${w}\n"
    "  output: ${g}\n"
    "full output: ${OUT}")
endif()
