# --help check for the bench binaries, run via `cmake -P` from CTest:
# each binary below must exit with status 0, print its usage line and at
# least one option on stdout and nothing else there (no figure: every
# line is the usage line or an indented option), print nothing on
# stderr, and leave no file behind (no metrics report, no CSV).
#
# Input: BENCH_DIR (the directory holding the bench binaries), WORK_DIR
# (an empty directory to run them in; created here).

set(benches
  ablation_fec ablation_guard ablation_multi_tag fig3_channel_change
  fig5_ber_throughput fig6_nlos_cdf fig_city fig_rateless fig_robustness
  micro_obs soak tab_comparison tab_power_oscillator tab_throughput_model
  tab_trigger_detection)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(bench IN LISTS benches)
  execute_process(
    COMMAND ${BENCH_DIR}/${bench} --help
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  # One list element per line (a ';' in the text would split one).
  string(REGEX REPLACE "\n$" "" body "${out}")
  string(REPLACE ";" "," body "${body}")
  string(REPLACE "\n" ";" lines "${body}")
  set(stray "")
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "^(usage: ${bench} |  )")
      set(stray "${line}")
      break()
    endif()
  endforeach()
  file(GLOB leftovers "${WORK_DIR}/*")
  if(NOT result EQUAL 0 OR NOT out MATCHES "^usage: ${bench} " OR
     NOT out MATCHES "\n  --[a-z]" OR NOT stray STREQUAL "" OR
     NOT err STREQUAL "" OR leftovers)
    message(FATAL_ERROR
      "${bench} --help: exit ${result}, stdout '${out}', stderr '${err}', "
      "files '${leftovers}'; want exit 0, the usage line and the options "
      "on stdout only, and no file")
  endif()
endforeach()
