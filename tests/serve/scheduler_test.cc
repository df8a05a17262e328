// Job scheduler: admission control, queued/running cancellation, drain
// semantics, governance wiring (deadline + memory budget), and concurrent
// submission (a TSan target).
#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/sliceline.h"
#include "core/sliceline_la.h"
#include "serve_test_util.h"

namespace sliceline::serve {
namespace {

/// Fast jobs (a few ms): small lattice.
const std::shared_ptr<const RegisteredDataset>& SmallDataset() {
  static const std::shared_ptr<const RegisteredDataset> dataset =
      BuildRegisteredDataset("small", MakeCsvText(400, 4, 3, 11)).value();
  return dataset;
}

/// Slow jobs (a deep unbounded enumeration): used to observe queued and
/// running states from the outside without timing games.
const std::shared_ptr<const RegisteredDataset>& SlowDataset() {
  static const std::shared_ptr<const RegisteredDataset> dataset =
      BuildRegisteredDataset("slow", MakeCsvText(6000, 8, 4, 13)).value();
  return dataset;
}

JobSpec MakeSpec(const std::shared_ptr<const RegisteredDataset>& dataset,
                 const std::string& engine = "native") {
  JobSpec spec;
  spec.dataset = dataset;
  spec.engine = engine;
  spec.config.k = 4;
  spec.config.alpha = 0.95;
  return spec;
}

/// A slow-but-bounded job (level cap 3, ~tens of ms): long enough that a
/// burst of submissions piles up behind one worker, short enough that the
/// tests that let it finish stay fast.
JobSpec SlowSpec() {
  JobSpec spec = MakeSpec(SlowDataset());
  spec.config.max_level = 3;
  return spec;
}

/// A genuinely long job for the tests that interrupt it. The planted-signal
/// dataset prunes flat by level ~4, so no level cap alone keeps the engine
/// busy; disabling the upper-bound pruning makes the candidate set grow
/// combinatorially (several seconds of work), wide enough that cancellation
/// or a deadline reliably lands mid-run even on a heavily loaded machine.
/// The level cap bounds the damage if interruption were to break.
JobSpec LongSpec() {
  JobSpec spec = MakeSpec(SlowDataset());
  spec.config.max_level = 5;
  spec.config.prune_size = false;
  spec.config.prune_score = false;
  return spec;
}

Scheduler::Options MakeOptions(int workers, int max_queue) {
  Scheduler::Options options;
  options.workers = workers;
  options.max_queue = max_queue;
  return options;
}

TEST(ServeSchedulerTest, RunsJobToCompletionMatchingDirectRun) {
  Scheduler scheduler(MakeOptions(2, 8));
  auto submitted = scheduler.Submit(MakeSpec(SmallDataset()));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  const std::shared_ptr<Job>& job = submitted.value();
  EXPECT_GE(job->id, 1);
  job->WaitDone();
  ASSERT_EQ(job->CurrentState(), JobState::kDone);

  core::SliceLineConfig config;
  config.k = 4;
  config.alpha = 0.95;
  auto direct = core::RunSliceLine(SmallDataset()->dataset, config);
  ASSERT_TRUE(direct.ok());
  ExpectSameResult(job->result, direct.value(),
                   SmallDataset()->dataset.feature_names);

  // Counters update just after the job's terminal notification; the drain
  // barrier makes them exact.
  scheduler.DrainAndStop();
  EXPECT_EQ(scheduler.jobs_admitted(), 1);
  EXPECT_EQ(scheduler.jobs_completed(), 1);
  EXPECT_EQ(scheduler.jobs_failed(), 0);
  EXPECT_EQ(scheduler.queue_depth(), 0);
  EXPECT_EQ(scheduler.running(), 0);
  EXPECT_EQ(scheduler.Find(job->id), job);
  EXPECT_EQ(scheduler.Find(9999), nullptr);
}

TEST(ServeSchedulerTest, FinishedJobsReleaseTheirDatasetSnapshot) {
  auto dataset =
      BuildRegisteredDataset("released", MakeCsvText(400, 4, 3, 12)).value();
  const std::weak_ptr<const RegisteredDataset> weak = dataset;
  const std::vector<std::string> feature_names =
      dataset->dataset.feature_names;
  Scheduler scheduler(MakeOptions(2, 8));
  auto first = scheduler.Submit(MakeSpec(dataset));
  auto second = scheduler.Submit(MakeSpec(dataset, "la"));
  ASSERT_TRUE(first.ok() && second.ok());
  dataset.reset();
  first.value()->WaitDone();
  second.value()->WaitDone();
  scheduler.DrainAndStop();
  // Only the jobs held the snapshot; finished, they no longer do.
  EXPECT_TRUE(weak.expired());
  for (const std::shared_ptr<Job>& job : {first.value(), second.value()}) {
    ASSERT_EQ(job->CurrentState(), JobState::kDone);
    EXPECT_EQ(job->spec.dataset, nullptr);
    EXPECT_EQ(job->dataset_name, "released");
    EXPECT_EQ(job->feature_names, feature_names);
    EXPECT_NE(job->report_json.find("\"released\""), std::string::npos);
  }
  EXPECT_FALSE(scheduler.HasActiveJobsForDataset("released"));
}

TEST(ServeSchedulerTest, DispatchesLinearAlgebraEngine) {
  Scheduler scheduler(MakeOptions(2, 8));
  auto submitted = scheduler.Submit(MakeSpec(SmallDataset(), "la"));
  ASSERT_TRUE(submitted.ok());
  submitted.value()->WaitDone();
  ASSERT_EQ(submitted.value()->CurrentState(), JobState::kDone);

  core::SliceLineConfig config;
  config.k = 4;
  config.alpha = 0.95;
  auto direct = core::RunSliceLineLA(SmallDataset()->dataset, config);
  ASSERT_TRUE(direct.ok());
  ExpectSameResult(submitted.value()->result, direct.value(),
                   SmallDataset()->dataset.feature_names);
}

TEST(ServeSchedulerTest, EngineErrorYieldsFailedState) {
  Scheduler scheduler(MakeOptions(1, 8));
  JobSpec spec = MakeSpec(SmallDataset());
  spec.config.k = 0;  // the engine rejects k < 1
  auto submitted = scheduler.Submit(std::move(spec));
  ASSERT_TRUE(submitted.ok());
  submitted.value()->WaitDone();
  ASSERT_EQ(submitted.value()->CurrentState(), JobState::kFailed);
  {
    std::lock_guard<std::mutex> lock(submitted.value()->mutex);
    EXPECT_EQ(submitted.value()->error.code(), StatusCode::kInvalidArgument);
  }
  scheduler.DrainAndStop();
  EXPECT_EQ(scheduler.jobs_failed(), 1);
}

TEST(ServeSchedulerTest, AdmissionRejectsWhenQueueIsFull) {
  Scheduler scheduler(MakeOptions(1, 2));
  std::vector<std::shared_ptr<Job>> admitted;
  bool saw_rejection = false;
  // A burst far larger than the bound: with one worker chewing on slow
  // jobs, the in-flight count hits max_queue within the first submissions.
  for (int i = 0; i < 16 && !saw_rejection; ++i) {
    auto submitted = scheduler.Submit(SlowSpec());
    if (submitted.ok()) {
      admitted.push_back(submitted.value());
      continue;
    }
    saw_rejection = true;
    EXPECT_EQ(submitted.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(submitted.status().message().find("queue full"),
              std::string::npos);
  }
  EXPECT_TRUE(saw_rejection);
  // Fast jobs may retire mid-burst and free slots, so more than max_queue
  // jobs can be admitted in total -- but never more than max_queue at once,
  // which is what the rejection above witnessed.
  EXPECT_GE(scheduler.jobs_rejected(), 1);
  scheduler.DrainAndStop();
  EXPECT_EQ(scheduler.jobs_completed(),
            static_cast<int64_t>(admitted.size()));
}

TEST(ServeSchedulerTest, CancelQueuedJobNeverRuns) {
  Scheduler scheduler(MakeOptions(1, 8));
  // The single worker picks up the long blocker; the next submission waits
  // in the queue where the cancel can reach it before execution. The blocker
  // must outlive the few statements up to the cancel even if this thread is
  // descheduled for a while, hence LongSpec rather than SlowSpec.
  auto blocker = scheduler.Submit(LongSpec());
  ASSERT_TRUE(blocker.ok());
  auto queued = scheduler.Submit(MakeSpec(SmallDataset()));
  ASSERT_TRUE(queued.ok());

  auto state = scheduler.Cancel(queued.value()->id);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state.value(), JobState::kCancelled);
  queued.value()->WaitDone();
  EXPECT_EQ(queued.value()->CurrentState(), JobState::kCancelled);
  EXPECT_EQ(scheduler.jobs_cancelled(), 1);

  // Release the worker. If the blocker was already running, the cooperative
  // cancel retires it as kDone with best-so-far results; on a heavily loaded
  // machine the worker may not have picked it up yet, in which case the
  // queued-cancel path ends it kCancelled without running.
  ASSERT_TRUE(scheduler.Cancel(blocker.value()->id).ok());
  blocker.value()->WaitDone();
  const JobState blocker_state = blocker.value()->CurrentState();
  EXPECT_TRUE(blocker_state == JobState::kDone ||
              blocker_state == JobState::kCancelled);
  const int64_t expected_cancelled =
      blocker_state == JobState::kCancelled ? 2 : 1;
  // Cancelling a terminal job is a no-op reporting the terminal state.
  auto again = scheduler.Cancel(queued.value()->id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), JobState::kCancelled);
  EXPECT_EQ(scheduler.jobs_cancelled(), expected_cancelled);
}

TEST(ServeSchedulerTest, CancelRunningJobReturnsPartialResult) {
  Scheduler scheduler(MakeOptions(1, 4));
  auto submitted = scheduler.Submit(LongSpec());
  ASSERT_TRUE(submitted.ok());
  const std::shared_ptr<Job>& job = submitted.value();
  while (job->CurrentState() == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(job->CurrentState(), JobState::kRunning);
  auto state = scheduler.Cancel(job->id);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state.value(), JobState::kRunning);

  job->WaitDone();
  // Cooperative cancellation: the engine returns best-so-far results, so
  // the job still ends kDone -- with the outcome recording the cut.
  ASSERT_EQ(job->CurrentState(), JobState::kDone);
  std::lock_guard<std::mutex> lock(job->mutex);
  EXPECT_EQ(job->result.outcome.termination,
            RunOutcome::Termination::kCancelled);
  EXPECT_TRUE(job->result.outcome.partial);
}

TEST(ServeSchedulerTest, CancelUnknownJobIsNotFound) {
  Scheduler scheduler(MakeOptions(1, 4));
  auto state = scheduler.Cancel(12345);
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.status().code(), StatusCode::kNotFound);
}

TEST(ServeSchedulerTest, PerJobDeadlineCutsTheRunShort) {
  Scheduler scheduler(MakeOptions(1, 4));
  JobSpec spec = LongSpec();
  spec.deadline_seconds = 0.003;
  auto submitted = scheduler.Submit(std::move(spec));
  ASSERT_TRUE(submitted.ok());
  submitted.value()->WaitDone();
  ASSERT_EQ(submitted.value()->CurrentState(), JobState::kDone);
  std::lock_guard<std::mutex> lock(submitted.value()->mutex);
  // The engine degrades and/or stops early; it must not report an
  // untroubled completion on a multi-second enumeration given 3ms.
  EXPECT_NE(submitted.value()->result.outcome.termination,
            RunOutcome::Termination::kCompleted);
}

TEST(ServeSchedulerTest, MemoryBudgetsAreWiredIntoJobs) {
  Scheduler::Options options = MakeOptions(1, 4);
  options.memory_budget_bytes = 1LL << 30;
  Scheduler scheduler(options);

  // Default: the shared server-wide budget accounts the run.
  auto shared_job = scheduler.Submit(MakeSpec(SmallDataset()));
  ASSERT_TRUE(shared_job.ok());
  shared_job.value()->WaitDone();
  ASSERT_EQ(shared_job.value()->CurrentState(), JobState::kDone);
  EXPECT_GT(scheduler.shared_budget()->peak_bytes(), 0);
  EXPECT_EQ(shared_job.value()->own_budget, nullptr);

  // Per-job override: the job gets its own budget instance.
  JobSpec spec = MakeSpec(SmallDataset());
  spec.memory_budget_bytes = 1LL << 29;
  auto own_job = scheduler.Submit(std::move(spec));
  ASSERT_TRUE(own_job.ok());
  own_job.value()->WaitDone();
  ASSERT_EQ(own_job.value()->CurrentState(), JobState::kDone);
  ASSERT_NE(own_job.value()->own_budget, nullptr);
  EXPECT_GT(own_job.value()->own_budget->peak_bytes(), 0);
}

TEST(ServeSchedulerTest, DrainStopsAdmissionAndWaitsForInFlight) {
  auto scheduler = std::make_unique<Scheduler>(MakeOptions(2, 16));
  std::vector<std::shared_ptr<Job>> jobs;
  for (int i = 0; i < 6; ++i) {
    auto submitted = scheduler->Submit(MakeSpec(SmallDataset()));
    ASSERT_TRUE(submitted.ok());
    jobs.push_back(submitted.value());
  }
  scheduler->DrainAndStop();
  for (const std::shared_ptr<Job>& job : jobs) {
    EXPECT_TRUE(job->Terminal());
    EXPECT_EQ(job->CurrentState(), JobState::kDone);
  }
  EXPECT_EQ(scheduler->queue_depth(), 0);
  EXPECT_EQ(scheduler->running(), 0);

  auto rejected = scheduler->Submit(MakeSpec(SmallDataset()));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCancelled);
  EXPECT_NE(rejected.status().message().find("draining"), std::string::npos);
}

// TSan target: concurrent submissions, cancels, and stat reads against one
// scheduler must be race-free, and the counters must balance afterwards.
TEST(ServeSchedulerTest, ConcurrentSubmitCancelAndStatsAreCoherent) {
  Scheduler scheduler(MakeOptions(4, 64));
  constexpr int kThreads = 8;
  constexpr int kJobsPerThread = 4;
  std::atomic<int> accepted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&scheduler, &accepted, t] {
      for (int i = 0; i < kJobsPerThread; ++i) {
        auto submitted = scheduler.Submit(MakeSpec(SmallDataset()));
        if (!submitted.ok()) continue;
        accepted.fetch_add(1, std::memory_order_relaxed);
        if ((t + i) % 3 == 0) {
          (void)scheduler.Cancel(submitted.value()->id);
        }
        (void)scheduler.queue_depth();
        (void)scheduler.running();
        submitted.value()->WaitDone();
        EXPECT_TRUE(submitted.value()->Terminal());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  scheduler.DrainAndStop();
  EXPECT_EQ(scheduler.jobs_admitted(), accepted.load());
  EXPECT_EQ(scheduler.jobs_completed() + scheduler.jobs_cancelled(),
            accepted.load());
  EXPECT_EQ(scheduler.jobs_failed(), 0);
  EXPECT_EQ(scheduler.queue_depth(), 0);
  EXPECT_EQ(scheduler.running(), 0);
}

}  // namespace
}  // namespace sliceline::serve
