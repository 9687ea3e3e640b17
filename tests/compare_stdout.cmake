# Runs PROGRAM and compares its stdout byte for byte with GOLDEN, the way
# test_cli pins the experiments' outputs. ACTUAL keeps the captured stdout
# for diffing. CMakeLists.txt runs every example this way:
#
#   cmake -DPROGRAM=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P compare_stdout.cmake
#
# After a deliberate output change, regenerate the golden from the build:
#   ./build/example_<name> > examples/<name>.txt
execute_process(COMMAND "${PROGRAM}" OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with '${status}'")
endif()
if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "missing golden ${GOLDEN}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${ACTUAL}"
                        "${GOLDEN}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout of ${PROGRAM} (${ACTUAL}) differs from ${GOLDEN}")
endif()
