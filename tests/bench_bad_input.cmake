# Bad-input check for the bench binaries, run via `cmake -P` from CTest:
# a positional argument, given to each binary below, a malformed value
# (fig5_ber_throughput --runs 12abc, micro_obs --threads 2x), a negative
# count (fig5_ber_throughput --runs -1 or --rounds -3), a value out of
# range (--pos 99 of fig_robustness, fig_rateless, ablation_fec and
# soak, soak --intensity 7, fig6_nlos_cdf --measurements 0,
# ablation_multi_tag --tags 0 or 5), a fault mask that is negative or
# sets a bit no injector owns (--faults -1, 4294967328 or 32) and an
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
list(APPEND invocations "fig5_ber_throughput --runs -1")
list(APPEND invocations "fig5_ber_throughput --runs 1 --rounds -3")
list(APPEND invocations "fig_robustness --pos 99")
list(APPEND invocations "fig_rateless --pos 99")
list(APPEND invocations "ablation_fec --pos 99")
list(APPEND invocations "soak --pos 99")
list(APPEND invocations "fig_robustness --faults -1")
list(APPEND invocations "fig_rateless --faults -1")
list(APPEND invocations "fig_robustness --faults 4294967328")
list(APPEND invocations "soak --faults 32 --chunks 1 --runs 1 --rounds 1")
list(APPEND invocations "soak --intensity 7")
list(APPEND invocations "fig6_nlos_cdf --measurements 0")
list(APPEND invocations "ablation_multi_tag --tags 0")
list(APPEND invocations "ablation_multi_tag --tags 5")
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
