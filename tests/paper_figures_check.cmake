# Runs one bench or tool invocation (paper_figures, many_locks,
# hlock_experiment) and checks what it printed.
#
#   cmake -DBIN=<binary> "-DARGS=<flags>" [-DGOLDEN=<file> | -DEXPECT_FAIL=1]
#         -P paper_figures_check.cmake
#
# With GOLDEN the run must exit 0 and its stdout must equal the file byte
# for byte; a mismatch leaves the actual output next to the test as
# <golden name>.actual. With EXPECT_FAIL the run is a failed self-check:
# it must exit 1 and print a "FAIL:" line to stderr. With neither, the
# flags are bad input: the run must exit 2 (a usage error) and print
# nothing to stdout.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(DEFINED GOLDEN)
  file(READ "${GOLDEN}" expected)
  if(NOT rc EQUAL 0 OR NOT out STREQUAL expected)
    get_filename_component(golden_name "${GOLDEN}" NAME)
    file(WRITE "${golden_name}.actual" "${out}")
    message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, stdout differs "
            "from ${GOLDEN} (actual in ${golden_name}.actual)\n${err}")
  endif()
elseif(DEFINED EXPECT_FAIL)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "(^|\n)FAIL: ")
    message(FATAL_ERROR "${BIN} ${ARGS}: want exit 1 and a FAIL: line on "
            "stderr, got exit ${rc} and:\n${err}")
  endif()
elseif(NOT rc EQUAL 2 OR NOT out STREQUAL "")
  message(FATAL_ERROR "${BIN} ${ARGS}: want exit 2 and no stdout, "
          "got exit ${rc} and:\n${out}")
endif()
