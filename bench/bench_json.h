// Shared bench runner: every figure benchmark mirrors its results to a
// machine-readable BENCH_<name>.json in the working directory (Google
// Benchmark's native JSON schema) so the perf trajectory can accumulate
// across PRs. Passing an explicit --benchmark_out=... overrides the default.
// The JSON context says what was built: this repository's build type, the
// compiler and the git revision at configure time (UFILTER_* definitions
// from cmake/UFilterHelpers.cmake). Google Benchmark's own
// library_build_type describes the benchmark library, not this build.
#ifndef UFILTER_BENCH_BENCH_JSON_H_
#define UFILTER_BENCH_BENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#ifndef UFILTER_BUILD_TYPE
#define UFILTER_BUILD_TYPE "unknown"
#endif
#ifndef UFILTER_GIT_REVISION
#define UFILTER_GIT_REVISION "unknown"
#endif

namespace ufilter::bench {

/// Runs all registered benchmarks. Unless the caller already passed a
/// --benchmark_out flag, results are also written as JSON to
/// `BENCH_<name>.json` in the current directory.
inline int RunWithJson(int argc, char** argv, const char* name) {
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Only an explicit output *file* disables the default; a bare
    // --benchmark_out_format does not (and is overridden below so that a
    // file named BENCH_*.json is always actually JSON).
    if (arg == "--benchmark_out" || arg.rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = std::string("--benchmark_out=BENCH_") + name + ".json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::AddCustomContext("ufilter_build_type", UFILTER_BUILD_TYPE);
#ifdef __clang__
  benchmark::AddCustomContext("ufilter_compiler", __VERSION__);
#else
  benchmark::AddCustomContext("ufilter_compiler", "GCC " __VERSION__);
#endif
  benchmark::AddCustomContext("ufilter_git_revision", UFILTER_GIT_REVISION);
  benchmark::Initialize(&n, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace ufilter::bench

#endif  // UFILTER_BENCH_BENCH_JSON_H_
