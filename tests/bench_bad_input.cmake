# Bad-input check for the bench binaries, run via `cmake -P` from CTest:
# a positional argument, given to each binary below, a malformed value
# (fig5_ber_throughput --runs 12abc, micro_obs --threads 2x) and an
# unknown option (fig5_ber_throughput --rnus 64) must each exit with
# status 2, print nothing on stdout and exactly one line,
# "<binary>: <reason>", on stderr (util::run_main).
#
# Input: BENCH_DIR (the directory holding the bench binaries).

set(benches
  ablation_fec ablation_guard ablation_multi_tag fig3_channel_change
  fig5_ber_throughput fig6_nlos_cdf fig_city fig_rateless fig_robustness
  soak tab_comparison tab_power_oscillator tab_throughput_model
  tab_trigger_detection)

set(invocations)
foreach(bench IN LISTS benches)
  list(APPEND invocations "${bench} stray")
endforeach()
list(APPEND invocations "fig5_ber_throughput --runs 12abc")
list(APPEND invocations "fig5_ber_throughput --rnus 64")
list(APPEND invocations "micro_obs --threads 2x")

foreach(invocation IN LISTS invocations)
  separate_arguments(args UNIX_COMMAND "${invocation} --no-metrics")
  list(POP_FRONT args bench)
  execute_process(
    COMMAND ${BENCH_DIR}/${bench} ${args}
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  string(REGEX MATCHALL "\n" newlines "${err}")
  list(LENGTH newlines n_lines)
  if(NOT result EQUAL 2 OR NOT out STREQUAL "" OR NOT n_lines EQUAL 1 OR
     NOT err MATCHES "^${bench}: ")
    message(FATAL_ERROR
      "${invocation}: exit ${result}, stdout '${out}', stderr '${err}'; "
      "want exit 2, no stdout and one '${bench}: <reason>' line on stderr")
  endif()
endforeach()
