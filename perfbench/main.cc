// SliceLine benchmark driver. Runs one named workload with a given seed for
// a given number of seconds and prints its metrics; the last line of stdout
// is the JSON result. Normally started through run.py, which builds it:
//
//   perfbench --workload batch-wide|batch-tall|serve-mixed --seed N
//             --seconds S --trace 0|1 --spec BENCHMARK.json --work-dir DIR
//
// --trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1
// the per_layer ones (from a separate traced run). Exits 1 when any output
// check fails or a metric cannot be reported, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "batch-wide|batch-tall|serve-mixed --seed N --seconds S "
               "--trace 0|1 --spec BENCHMARK.json --work-dir DIR\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string spec_path;
  std::string trace = "0";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0)) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--spec") {
      spec_path = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (trace != "0" && trace != "1") return Usage("--trace must be 0 or 1");
  options.trace = trace == "1";
  if (!have_seed || spec_path.empty() || options.work_dir.empty()) {
    return Usage("--seed, --spec and --work-dir are required");
  }
  const bool batch =
      options.workload == "batch-wide" || options.workload == "batch-tall";
  if (!batch && options.workload != "serve-mixed") {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  sliceline::StatusOr<std::vector<perfbench::MetricSpec>> specs =
      perfbench::LoadMetricSpecs(spec_path);
  if (!specs.ok()) return Usage(specs.status().ToString().c_str());
  perfbench::Report report(options, std::move(specs).value());
  return batch ? perfbench::RunBatch(options, &report)
               : perfbench::RunServe(options, &report);
}
