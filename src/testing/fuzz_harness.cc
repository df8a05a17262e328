#include "testing/fuzz_harness.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "testing/shrink.h"

namespace sliceline::testing {
namespace {

bool CheckSelected(const FuzzOptions& options, const std::string& name) {
  if (options.checks.empty()) return true;
  return std::find(options.checks.begin(), options.checks.end(), name) !=
         options.checks.end();
}

/// Dispatches a dataset-driven check by name (the kernel check is seed-
/// driven and handled separately).
std::string RunDatasetCheck(const std::string& check, const FuzzCase& fuzz_case,
                            InjectedBug inject) {
  if (check == "oracle") return CheckOracleDifferential(fuzz_case, inject);
  if (check == "metamorphic") return CheckMetamorphic(fuzz_case);
  if (check == "determinism") return CheckDeterminism(fuzz_case);
  if (check == "governance") return CheckGovernance(fuzz_case);
  if (check == "kernels-simd") return CheckSimdDifferential(fuzz_case);
  if (check == "stream-equivalence") return CheckStreamEquivalence(fuzz_case);
  if (check == "resume") return CheckResume(fuzz_case);
  return "unknown check: " + check;
}

void RecordFailure(const FuzzOptions& options, const std::string& check,
                   uint64_t case_index, std::string failure, FuzzCase fuzz_case,
                   int kernel_rounds, FuzzReport* report) {
  FuzzFailure entry;
  entry.check = check;
  entry.case_index = case_index;

  if (options.shrink && check != "kernel") {
    ShrinkResult shrunk =
        Shrink(fuzz_case, failure, [&](const FuzzCase& candidate) {
          return RunDatasetCheck(check, candidate, options.inject);
        });
    if (options.verbose) {
      std::fprintf(stderr,
                   "[fuzz] shrunk case %llu: %lldx%lld -> %lldx%lld rows/cols "
                   "in %d steps (%d attempts)\n",
                   static_cast<unsigned long long>(case_index),
                   static_cast<long long>(fuzz_case.x0.rows()),
                   static_cast<long long>(fuzz_case.x0.cols()),
                   static_cast<long long>(shrunk.fuzz_case.x0.rows()),
                   static_cast<long long>(shrunk.fuzz_case.x0.cols()),
                   shrunk.steps, shrunk.attempts);
    }
    entry.shrink_steps = shrunk.steps;
    fuzz_case = std::move(shrunk.fuzz_case);
    failure = std::move(shrunk.failure);
  }
  entry.failure = std::move(failure);
  entry.fuzz_case = std::move(fuzz_case);

  if (!options.replay_dir.empty()) {
    ReplayRecord record;
    record.check = check;
    record.failure = entry.failure;
    record.case_index = case_index;
    record.kernel_rounds = check == "kernel" ? kernel_rounds : 0;
    record.fuzz_case = entry.fuzz_case;
    const std::string path = options.replay_dir + "/replay_" + check + "_case" +
                             std::to_string(case_index) + ".json";
    Status status = WriteReplayFile(path, record);
    if (status.ok()) {
      entry.replay_path = path;
    } else {
      LOG_WARNING << "failed to write replay file " << path << ": "
                  << status.ToString();
    }
  }
  report->failures.push_back(std::move(entry));
}

}  // namespace

FuzzReport RunFuzz(const FuzzOptions& options) {
  FuzzReport report;
  RandomDatasetGenerator generator(options.seed, options.dataset);
  const int profiles = RandomDatasetGenerator::num_profiles();

  for (int i = 0; i < options.cases; ++i) {
    if (static_cast<int>(report.failures.size()) >= options.max_failures) {
      break;
    }
    // Deterministic profile cycling: a batch of >= num_profiles cases covers
    // every pathological generator shape.
    const FuzzCase fuzz_case = generator.NextWithProfile(i % profiles);
    ++report.cases_run;
    if (options.verbose) {
      std::fprintf(stderr, "[fuzz] case %d: profile=%s n=%lld m=%lld\n", i,
                   fuzz_case.profile.c_str(),
                   static_cast<long long>(fuzz_case.x0.rows()),
                   static_cast<long long>(fuzz_case.x0.cols()));
    }

    for (const char* check : {"oracle", "metamorphic", "governance",
                              "kernels-simd", "stream-equivalence",
                              "resume"}) {
      if (!CheckSelected(options, check)) continue;
      ++report.checks_run;
      std::string failure = RunDatasetCheck(check, fuzz_case, options.inject);
      if (!failure.empty()) {
        RecordFailure(options, check, static_cast<uint64_t>(i),
                      std::move(failure), fuzz_case, 0, &report);
        break;
      }
    }
    if (static_cast<int>(report.failures.size()) >= options.max_failures) {
      break;
    }

    if (CheckSelected(options, "determinism") &&
        i % std::max(1, options.determinism_stride) == 0) {
      ++report.checks_run;
      std::string failure = CheckDeterminism(fuzz_case);
      if (!failure.empty()) {
        RecordFailure(options, "determinism", static_cast<uint64_t>(i),
                      std::move(failure), fuzz_case, 0, &report);
        continue;
      }
    }

    if (CheckSelected(options, "kernel")) {
      ++report.checks_run;
      // Kernel draws are seeded from the case seed, so a kernel failure is
      // regenerable from the replay record's seed alone.
      std::string failure = CheckKernelDifferential(
          fuzz_case.seed, options.kernel_rounds, options.inject);
      if (!failure.empty()) {
        RecordFailure(options, "kernel", static_cast<uint64_t>(i),
                      std::move(failure), fuzz_case, options.kernel_rounds,
                      &report);
        continue;
      }
    }
  }
  return report;
}

std::string RunReplay(const ReplayRecord& record, InjectedBug inject) {
  if (record.check == "kernel") {
    return CheckKernelDifferential(record.fuzz_case.seed,
                                   std::max(1, record.kernel_rounds), inject);
  }
  return RunDatasetCheck(record.check, record.fuzz_case, inject);
}

}  // namespace sliceline::testing
