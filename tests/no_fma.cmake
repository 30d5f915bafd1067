# FMA check, run via `cmake -P` from CTest (test `phy.no_fma`).
#
# Inputs: OBJDUMP (the objdump binary; empty or missing skips the test)
# and LIB (the witag_phy archive).
#
# The double kernels must round exactly like the uncontracted scalar
# code, so no function in the library may use a fused multiply-add.
# -mavx512f makes the EVEX FMA instructions available to GCC, which
# would contract a * b + c into one without -ffp-contract=off; this
# fails on any vfmadd, vfmsub, vfnmadd or vfnmsub in the disassembly.

if(NOT OBJDUMP OR NOT EXISTS "${OBJDUMP}")
  message("no_fma: objdump not found, skipped")
  return()
endif()

execute_process(
  COMMAND ${OBJDUMP} -d --no-show-raw-insn "${LIB}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE disassembly
  ERROR_VARIABLE stderr)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "no_fma: ${OBJDUMP} -d ${LIB} exited ${result}:\n${stderr}")
endif()

string(REGEX MATCHALL "\tvfn?m(add|sub)[0-9a-z]*[^\n]*" fma "${disassembly}")
list(LENGTH fma count)
if(count GREATER 0)
  list(GET fma 0 first)
  message(FATAL_ERROR
    "no_fma: ${LIB} holds ${count} fused multiply-add instruction(s), "
    "the first:${first}")
endif()
