// portal_bench --workload steer|fanout|federated --seed N --seconds S
//              [--trace 0|1] [--out DIR]
//
// One pass of the portal benchmark; prints one JSON object on stdout.
// perfbench/run.py builds this binary and wraps it in the benchmark
// contract (see perfbench/NOTES.md).
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "generator.h"
#include "plan.h"

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--out") {
      out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  try {
    const portalbench::Plan plan =
        portalbench::make_plan(workload, seed, seconds, trace);
    ::mkdir(out.c_str(), 0755);
    return portalbench::run_benchmark(plan, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "portal_bench: %s\n", e.what());
    return 2;
  }
}
