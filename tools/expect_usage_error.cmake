# Runs one command line and passes only if it exits 2 with EXPECT in its
# stderr: the input-boundary contract (a malformed flag is a usage error
# with a diagnostic, never a crash).
#
#   cmake -DEXE=<program> "-DARGS=<arg> <arg> ..." "-DEXPECT=<text>" \
#         -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit 2, got '${rc}'; stderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${EXPECT}':\n${err}")
endif()
