# Runs griftd over the 55-job smoke manifest and diffs the ErrorKind
# summary against the golden file. Invoked by ctest as
#   cmake -DGRIFTD=<path> -DMANIFEST=<path> -DGOLDEN=<path> -P griftd_smoke.cmake
# Every job in the manifest has a deterministic outcome (see the
# manifest header), so the summary — and the exit status, 4 because the
# manifest contains watchdog-cancelled jobs — must reproduce exactly.

execute_process(
  COMMAND ${GRIFTD} --threads=4 --summary-only ${MANIFEST}
  OUTPUT_VARIABLE SUMMARY
  ERROR_VARIABLE ERRORS
  RESULT_VARIABLE EXIT_CODE
  TIMEOUT 300
)

if(NOT EXIT_CODE EQUAL 4)
  message(FATAL_ERROR
      "griftd exited ${EXIT_CODE}, expected 4 (worst outcome: cancelled)\n"
      "stderr: ${ERRORS}")
endif()

file(READ ${GOLDEN} EXPECTED)
if(NOT SUMMARY STREQUAL EXPECTED)
  message(FATAL_ERROR
      "griftd summary diverged from ${GOLDEN}\n"
      "--- expected ---\n${EXPECTED}"
      "--- actual ---\n${SUMMARY}")
endif()

message(STATUS "griftd smoke: 55 jobs, summary matches golden")
