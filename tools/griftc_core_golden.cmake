# Compares `griftc --benchmark B --dump-core` and `--dynamic --dump-core`
# for every suite benchmark with the golden files in core_golden/. The
# core IR is deterministic, so this pins the front end's cast placement
# and every blame label "L:C" byte for byte. Invoked by ctest as
#   cmake -DGRIFTC=<path> -DGOLDEN_DIR=<path> -P griftc_core_golden.cmake
# Regenerate a golden file only for a deliberate front-end change:
#   griftc --benchmark B [--dynamic] --dump-core > core_golden/B[.dynamic].core

set(BENCHMARKS sieve n-body tak ray blackscholes matmult matmult-float
               quicksort fft)
set(FAILURES 0)
foreach(B IN LISTS BENCHMARKS)
  foreach(VARIANT typed dynamic)
    if(VARIANT STREQUAL "dynamic")
      set(FLAGS --dynamic)
      set(GOLDEN ${GOLDEN_DIR}/${B}.dynamic.core)
    else()
      set(FLAGS)
      set(GOLDEN ${GOLDEN_DIR}/${B}.core)
    endif()
    execute_process(
      COMMAND ${GRIFTC} --benchmark ${B} ${FLAGS} --dump-core
      OUTPUT_VARIABLE ACTUAL
      ERROR_VARIABLE ERRORS
      RESULT_VARIABLE EXIT_CODE
      TIMEOUT 60)
    file(READ ${GOLDEN} EXPECTED)
    if(NOT EXIT_CODE EQUAL 0)
      message(SEND_ERROR "${B} (${VARIANT}): griftc exited ${EXIT_CODE}\n${ERRORS}")
      math(EXPR FAILURES "${FAILURES} + 1")
    elseif(NOT ACTUAL STREQUAL EXPECTED)
      message(SEND_ERROR "${B} (${VARIANT}): core IR diverged from ${GOLDEN}\n"
                         "--- expected ---\n${EXPECTED}"
                         "--- actual ---\n${ACTUAL}")
      math(EXPR FAILURES "${FAILURES} + 1")
    endif()
  endforeach()
endforeach()

if(FAILURES GREATER 0)
  message(FATAL_ERROR "${FAILURES} core IR dump(s) diverged")
endif()
list(LENGTH BENCHMARKS COUNT)
message(STATUS "griftc core golden: ${COUNT} benchmarks x typed/dynamic match")
