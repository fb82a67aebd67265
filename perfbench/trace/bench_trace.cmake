# Build file of the benchmark's traced replay (bench_trace).
#
# perfbench/run.py configures the repository's own top-level project with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# The first inclusion happens inside project(), before the repository has
# declared its settings and library targets, so it only schedules a second
# inclusion for the end of the top-level CMakeLists. By then every
# bismark_* library exists and the tracer compiles with exactly the
# repository's standard, warnings, build type and BISMARK_OBS switch — the
# same settings the timed bismark_study binary is built with.
if(NOT DEFINED PERFBENCH_TRACE_DEFERRED)
  set(PERFBENCH_TRACE_DEFERRED ON)
  cmake_language(EVAL CODE
                 "cmake_language(DEFER CALL include [==[${CMAKE_CURRENT_LIST_FILE}]==])")
  return()
endif()

add_executable(bench_trace "${CMAKE_CURRENT_LIST_DIR}/bench_trace.cpp")
# The same libraries tools/bismark_study links.
target_link_libraries(bench_trace PRIVATE
  bismark_analysis bismark_home bismark_gateway bismark_collect bismark_traffic
  bismark_wireless bismark_net bismark_sim bismark_core)
set_target_properties(bench_trace PROPERTIES RUNTIME_OUTPUT_DIRECTORY
                      "${CMAKE_BINARY_DIR}/perfbench")
