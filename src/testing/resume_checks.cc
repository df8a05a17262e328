#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "core/checkpoint.h"
#include "core/sliceline.h"
#include "core/sliceline_la.h"
#include "testing/checks.h"

namespace sliceline::testing {

namespace {

struct Engine {
  const char* name;
  StatusOr<core::SliceLineResult> (*run)(const data::IntMatrix&,
                                         const std::vector<double>&,
                                         const core::SliceLineConfig&);
};

constexpr Engine kEngines[] = {
    {"native", core::RunSliceLine},
    {"la", core::RunSliceLineLA},
};

/// A fresh checkpoint directory under $TMPDIR (or /tmp), unique to this
/// process and case; removed with its file by the destructor.
class TempCheckpointDir {
 public:
  explicit TempCheckpointDir(uint64_t seed) {
    const char* tmp = std::getenv("TMPDIR");
    path_ = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
            "/sliceline_resume_" + std::to_string(::getpid()) + "_" +
            std::to_string(seed);
    ::mkdir(path_.c_str(), 0755);
    std::remove(core::CheckpointFilePath(path_).c_str());
  }
  ~TempCheckpointDir() {
    std::remove(core::CheckpointFilePath(path_).c_str());
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace

std::string CheckResume(const FuzzCase& fuzz_case) {
  Rng rng(fuzz_case.seed ^ 0x726573756d65ULL);
  for (const Engine& engine : kEngines) {
    const std::string label = std::string("[resume/") + engine.name + "]";
    core::SliceLineConfig config = fuzz_case.config;
    auto plain = engine.run(fuzz_case.x0, fuzz_case.errors, config);
    if (!plain.ok()) {
      return label + " uninterrupted run failed: " + plain.status().ToString();
    }

    // Interrupted: every governance poll advances the simulated clock by
    // 1s, so the drawn deadline stops the run at a reproducible poll.
    const TempCheckpointDir dir(fuzz_case.seed);
    SimulatedClock clock(0.0, 1.0);
    RunContext ctx;
    ctx.set_clock(&clock);
    ctx.set_deadline_seconds(1.0 + static_cast<double>(rng.NextInt(0, 60)));
    config.run_context = &ctx;
    config.checkpoint_dir = dir.path();
    auto interrupted = engine.run(fuzz_case.x0, fuzz_case.errors, config);
    if (!interrupted.ok()) {
      return label + " interrupted run failed: " +
             interrupted.status().ToString();
    }
    const bool saved = core::CheckpointFileExists(dir.path());

    config.run_context = nullptr;
    config.resume = true;
    auto resumed = engine.run(fuzz_case.x0, fuzz_case.errors, config);
    if (!resumed.ok()) {
      return label + " resumed run failed: " + resumed.status().ToString();
    }
    if (saved && !resumed->outcome.resumed_from_checkpoint) {
      return label + " ignored its own run's checkpoint (stopped at level " +
             std::to_string(interrupted->outcome.stopped_at_level) + ")";
    }
    std::string diff = CompareIdentical(*plain, *resumed, label);
    if (!diff.empty()) return diff;
  }
  return "";
}

}  // namespace sliceline::testing
