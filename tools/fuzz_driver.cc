// Seeded differential / metamorphic fuzzer for the SliceLine engines and
// sparse kernels.
//
//   fuzz_driver --seed=7 --cases=200                 # all checks
//   fuzz_driver --checks=oracle,kernel --cases=50
//   fuzz_driver --inject-bug=scoring --cases=200     # harness self-test
//   fuzz_driver --replay=replay_oracle_case12.json   # re-run a failure
//
// Exit codes: 0 all cases green (or replay passes), 1 a check failed,
// 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "testing/fuzz_harness.h"

namespace {

using sliceline::testing::FuzzOptions;
using sliceline::testing::FuzzReport;
using sliceline::testing::InjectedBug;

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: fuzz_driver [options]\n"
      "  --seed=N             base seed of the case stream (default 1)\n"
      "  --cases=N            number of generated cases (default 100)\n"
      "  --checks=a,b,...     subset of oracle,kernel,metamorphic,\n"
      "                       determinism,governance,kernels-simd,\n"
      "                       stream-equivalence,resume (default: all)\n"
      "  --kernel-rounds=N    matrix draws per kernel case (default 2)\n"
      "  --determinism-stride=N  run the determinism check every N-th case\n"
      "                       (default 8; it swaps thread pools, so it is\n"
      "                       the most expensive check)\n"
      "  --max-failures=N     stop after N failures (default 1)\n"
      "  --replay-dir=DIR     where replay files are written (default .;\n"
      "                       empty disables)\n"
      "  --no-shrink          skip dataset shrinking on failure\n"
      "  --inject-bug=KIND    none|scoring|kernel: deliberately corrupt the\n"
      "                       system under test (harness self-validation)\n"
      "  --replay=FILE        re-run a recorded failure instead of fuzzing\n"
      "  --verbose            per-case progress on stderr\n");
}

bool ParseFlagInt(const std::string& arg, const char* name, int64_t* out) {
  const std::string prefix = std::string(name) + "=";
  if (!sliceline::StartsWith(arg, prefix)) return false;
  auto parsed = sliceline::ParseInt64(arg.substr(prefix.size()));
  if (!parsed.ok()) {
    std::fprintf(stderr, "fuzz_driver: bad value in %s\n", arg.c_str());
    std::exit(2);
  }
  *out = *parsed;
  return true;
}

int RunReplayFile(const std::string& path, InjectedBug inject) {
  auto record = sliceline::testing::ReadReplayFile(path);
  if (!record.ok()) {
    std::fprintf(stderr, "fuzz_driver: cannot load replay %s: %s\n",
                 path.c_str(), record.status().ToString().c_str());
    return 2;
  }
  std::printf("replaying %s check (case %llu, profile %s, %lldx%lld)\n",
              record->check.c_str(),
              static_cast<unsigned long long>(record->case_index),
              record->fuzz_case.profile.c_str(),
              static_cast<long long>(record->fuzz_case.x0.rows()),
              static_cast<long long>(record->fuzz_case.x0.cols()));
  std::printf("recorded failure: %s\n", record->failure.c_str());
  const std::string failure = sliceline::testing::RunReplay(*record, inject);
  if (failure.empty()) {
    std::printf("replay PASSES on this build\n");
    return 0;
  }
  std::printf("replay still FAILS: %s\n", failure.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions options;
  std::string replay_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    int64_t value = 0;
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (ParseFlagInt(arg, "--seed", &value)) {
      options.seed = static_cast<uint64_t>(value);
    } else if (ParseFlagInt(arg, "--cases", &value)) {
      options.cases = static_cast<int>(value);
    } else if (ParseFlagInt(arg, "--kernel-rounds", &value)) {
      options.kernel_rounds = static_cast<int>(value);
    } else if (ParseFlagInt(arg, "--determinism-stride", &value)) {
      options.determinism_stride = static_cast<int>(value);
    } else if (ParseFlagInt(arg, "--max-failures", &value)) {
      options.max_failures = static_cast<int>(value);
    } else if (sliceline::StartsWith(arg, "--checks=")) {
      for (const std::string& check :
           sliceline::Split(arg.substr(sizeof("--checks=") - 1), ',')) {
        bool known = false;
        for (const char* name : sliceline::testing::kCheckNames) {
          known |= check == name;
        }
        if (!known) {
          std::fprintf(stderr, "fuzz_driver: unknown check '%s'\n",
                       check.c_str());
          return 2;
        }
        options.checks.push_back(check);
      }
    } else if (sliceline::StartsWith(arg, "--replay-dir=")) {
      options.replay_dir = arg.substr(sizeof("--replay-dir=") - 1);
    } else if (sliceline::StartsWith(arg, "--replay=")) {
      replay_path = arg.substr(sizeof("--replay=") - 1);
    } else if (sliceline::StartsWith(arg, "--inject-bug=")) {
      const std::string kind = arg.substr(sizeof("--inject-bug=") - 1);
      if (kind == "none") {
        options.inject = InjectedBug::kNone;
      } else if (kind == "scoring") {
        options.inject = InjectedBug::kScoring;
      } else if (kind == "kernel") {
        options.inject = InjectedBug::kKernel;
      } else {
        std::fprintf(stderr, "fuzz_driver: unknown bug kind '%s'\n",
                     kind.c_str());
        return 2;
      }
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else {
      std::fprintf(stderr, "fuzz_driver: unknown flag %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  if (!replay_path.empty()) return RunReplayFile(replay_path, options.inject);

  const FuzzReport report = RunFuzz(options);
  std::printf("fuzz: %d cases, %lld check executions, %zu failure(s)\n",
              report.cases_run, static_cast<long long>(report.checks_run),
              report.failures.size());
  for (const auto& failure : report.failures) {
    std::printf("FAIL [%s, case %llu, shrunk %d steps] %s\n",
                failure.check.c_str(),
                static_cast<unsigned long long>(failure.case_index),
                failure.shrink_steps, failure.failure.c_str());
    if (!failure.replay_path.empty()) {
      std::printf("  replay: fuzz_driver --replay=%s\n",
                  failure.replay_path.c_str());
    }
  }
  if (report.ok()) {
    std::printf("OK\n");
    return 0;
  }
  return 1;
}
