# Compares the SHA-256 of `griftc --mode=M --benchmark B [--dynamic]
# --dump-bytecode` for every suite benchmark, typed and dynamic, in every
# cast mode (static only typed: an erased program is not static) with the
# digests in bytecode_golden.sha256. The dump includes every function's
# slots, captures and instructions plus the cast, site, type, float,
# integer and global tables, so this pins codegen byte for byte. The full
# dumps are large, so only their digests are checked in; a mismatch
# prints the whole dump. Invoked by ctest as
#   cmake -DGRIFTC=<path> -DDIGESTS=<file> -P griftc_bytecode_golden.cmake
# Regenerate the digests only for a deliberate codegen change, by adding
# -DWRITE=ON to that command line.

set(BENCHMARKS sieve n-body tak ray blackscholes matmult matmult-float
               quicksort fft)
set(MODES static coercions type-based monotonic coercion-passing)
set(FAILURES 0)
set(CHECKED 0)
set(LINES "")
if(NOT WRITE)
  file(STRINGS ${DIGESTS} EXPECTED_LINES)
endif()
foreach(B IN LISTS BENCHMARKS)
  foreach(VARIANT typed dynamic)
    foreach(MODE IN LISTS MODES)
      if(VARIANT STREQUAL "dynamic" AND MODE STREQUAL "static")
        continue()
      endif()
      set(FLAGS --mode=${MODE} --benchmark ${B})
      if(VARIANT STREQUAL "dynamic")
        list(APPEND FLAGS --dynamic)
      endif()
      execute_process(
        COMMAND ${GRIFTC} ${FLAGS} --dump-bytecode
        OUTPUT_VARIABLE ACTUAL
        ERROR_VARIABLE ERRORS
        RESULT_VARIABLE EXIT_CODE
        TIMEOUT 60)
      set(NAME "${B} ${VARIANT} ${MODE}")
      math(EXPR CHECKED "${CHECKED} + 1")
      if(NOT EXIT_CODE EQUAL 0)
        message(SEND_ERROR "${NAME}: griftc exited ${EXIT_CODE}\n${ERRORS}")
        math(EXPR FAILURES "${FAILURES} + 1")
        continue()
      endif()
      string(SHA256 DIGEST "${ACTUAL}")
      set(LINE "${NAME} ${DIGEST}")
      if(WRITE)
        string(APPEND LINES "${LINE}\n")
        continue()
      endif()
      list(FIND EXPECTED_LINES "${LINE}" FOUND)
      if(FOUND EQUAL -1)
        message(SEND_ERROR "${NAME}: bytecode digest ${DIGEST} is not the "
                           "one in ${DIGESTS}\n--- actual ---\n${ACTUAL}")
        math(EXPR FAILURES "${FAILURES} + 1")
      endif()
    endforeach()
  endforeach()
endforeach()

if(WRITE)
  file(WRITE ${DIGESTS} "${LINES}")
  message(STATUS "griftc bytecode golden: wrote ${CHECKED} digests")
  return()
endif()
list(LENGTH EXPECTED_LINES EXPECTED_COUNT)
if(NOT EXPECTED_COUNT EQUAL CHECKED)
  message(SEND_ERROR "${DIGESTS} has ${EXPECTED_COUNT} digests, "
                     "${CHECKED} dumps were checked")
  math(EXPR FAILURES "${FAILURES} + 1")
endif()
if(FAILURES GREATER 0)
  message(FATAL_ERROR "${FAILURES} bytecode dump(s) diverged")
endif()
message(STATUS "griftc bytecode golden: ${CHECKED} dumps match")
