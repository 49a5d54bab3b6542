// ageo_perfbench: the repository's end-to-end benchmark.
//
//   ageo_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 prints every end-to-end metric; --trace 1 runs the workload
// serially with every layer call timed and prints the per-layer metrics.
// The last line of standard output is one JSON object; the exit code is
// non-zero whenever an output check fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "e2e.hpp"
#include "obs/metrics.hpp"
#include "traced.hpp"

namespace {

using namespace ageo::perfbench;

/// Knobs that would silently change what the library runs.
constexpr const char* kForbiddenEnv[] = {
    "AGEO_SIMD",  "AGEO_SIMD_EXP", "AGEO_AFFINITY", "AGEO_THREADS",
    "AGEO_SCALE", "AGEO_TRACE",    "AGEO_METRICS",  "AGEO_JOURNAL"};

int usage(const char* why) {
  std::fprintf(stderr,
               "ageo_perfbench: %s\nusage: ageo_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1\nworkloads:",
               why);
  for (const Workload& w : workloads())
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::uint64_t seed = 2018;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        w = find_workload(val);
        if (!w) return usage(("unknown workload " + val).c_str());
      } else if (arg == "--seed") {
        seed = std::stoull(val);
      } else if (arg == "--seconds") {
        seconds = std::stod(val);
      } else if (arg == "--trace") {
        trace = std::stoi(val);
        if (trace != 0 && trace != 1) return usage("--trace takes 0 or 1");
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!w) return usage("--workload is required");
  if (!(seconds > 0.0)) return usage("--seconds must be positive");
  for (const char* name : kForbiddenEnv)
    if (std::getenv(name)) {
      std::fprintf(stderr,
                   "ageo_perfbench: refusing to run with %s set: it changes "
                   "the measured configuration\n",
                   name);
      return 2;
    }
  ageo::obs::set_metrics_enabled(false);

  std::printf("fingerprint %s\n", fingerprint_json().c_str());
  std::printf("workload %.*s seed %llu trace %d\n",
              static_cast<int>(w->name.size()), w->name.data(),
              static_cast<unsigned long long>(seed), trace);
  Result result;
  try {
    if (trace)
      run_traced(*w, seed, result);
    else
      run_end_to_end(*w, seed, seconds, result);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "ageo_perfbench: check failed: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", result.json().c_str());
  return 0;
}
