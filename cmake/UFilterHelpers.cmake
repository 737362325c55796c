# Helper functions so adding a new test suite or benchmark is one line in the
# root CMakeLists.txt.

# ufilter_add_test(tests/<dir>/<stem>_test.cc)
#
# Builds one gtest binary for the suite and registers it with ctest under the
# name "<dir>/<stem>" (e.g. tests/ufilter/star_test.cc -> "ufilter/star").
function(ufilter_add_test src)
  get_filename_component(stem "${src}" NAME_WE)
  get_filename_component(dir "${src}" DIRECTORY)
  get_filename_component(dir "${dir}" NAME)
  string(REGEX REPLACE "_test$" "" suite "${stem}")

  set(target "ufilter_${dir}_${suite}_test")
  add_executable(${target} "${src}")
  target_link_libraries(${target} PRIVATE ufilter_core GTest::gtest_main)
  add_test(NAME "${dir}/${suite}" COMMAND ${target})
  set_tests_properties("${dir}/${suite}" PROPERTIES TIMEOUT 300)
endfunction()

# ufilter_add_bench(bench/bench_<name>.cc)
#
# Builds one Google Benchmark binary. Benchmarks are not registered with
# ctest; run them directly from the build tree (see docs/BENCHMARKS.md).
# bench/bench_json.h writes the build type and UFILTER_GIT_REVISION (set
# at configure time) into every BENCH_<name>.json.
function(ufilter_add_bench src)
  get_filename_component(stem "${src}" NAME_WE)
  add_executable(${stem} "${src}")
  target_link_libraries(${stem} PRIVATE ufilter_core benchmark::benchmark)
  target_compile_definitions(${stem} PRIVATE
    UFILTER_BUILD_TYPE="$<CONFIG>"
    UFILTER_GIT_REVISION="${UFILTER_GIT_REVISION}")
endfunction()

# ufilter_add_example(examples/<name>.cpp)
function(ufilter_add_example src)
  get_filename_component(stem "${src}" NAME_WE)
  add_executable(example_${stem} "${src}")
  set_target_properties(example_${stem} PROPERTIES OUTPUT_NAME "${stem}")
  target_link_libraries(example_${stem} PRIVATE ufilter_core)
endfunction()
