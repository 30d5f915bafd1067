# Color check for the google-benchmark binaries, run via `cmake -P` from
# CTest: each must print no escape sequence under
# --benchmark_color=false and color its rows under
# --benchmark_color=true, as google-benchmark's own reporter does.
#
# Input: BENCH_DIR (the directory holding micro_phy and micro_sim).

string(ASCII 27 escape)
foreach(run IN ITEMS "micro_phy;BM_Fft64$" "micro_sim;BM_EventLoop$")
  list(GET run 0 binary)
  list(GET run 1 filter)
  foreach(color IN ITEMS false true)
    execute_process(
      COMMAND ${BENCH_DIR}/${binary} --benchmark_filter=${filter}
        --benchmark_min_time=0.001 --benchmark_color=${color} --no-metrics
      RESULT_VARIABLE result
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err
      TIMEOUT 60)
    if(NOT result EQUAL 0)
      message(FATAL_ERROR "${binary} --benchmark_color=${color}: exit "
        "${result}\n${err}")
    endif()
    string(FIND "${out}" "${escape}" at)
    if(color STREQUAL "false" AND NOT at EQUAL -1)
      message(FATAL_ERROR
        "${binary} --benchmark_color=false printed an escape sequence:\n${out}")
    endif()
    if(color STREQUAL "true" AND at EQUAL -1)
      message(FATAL_ERROR
        "${binary} --benchmark_color=true printed no color:\n${out}")
    endif()
  endforeach()
endforeach()
