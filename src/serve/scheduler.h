#ifndef SLICELINE_SERVE_SCHEDULER_H_
#define SLICELINE_SERVE_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/run_context.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/slice.h"
#include "obs/trace_merge.h"
#include "serve/dataset_registry.h"

namespace sliceline::serve {

/// The "remote" engine, injected from above: serve cannot depend on the
/// dist layer (dist links serve), so whoever assembles the process
/// (sliceline_server, the integration tests) wires the distributed runner
/// in through this hook. `trace_id` is the job's fleet-trace id (0 = fleet
/// tracing off) and `obs_out`, when non-null, receives the per-worker
/// spans / counter deltas / cost sections collected during the run.
using RemoteEngineFn = std::function<StatusOr<core::SliceLineResult>(
    const data::EncodedDataset& dataset, const core::SliceLineConfig& config,
    uint64_t trace_id, obs::DistObsBundle* obs_out)>;

/// What one find_slices job runs: the (immutable, shared) dataset, the
/// engine, the fully resolved config, and the per-job resource envelope.
struct JobSpec {
  /// Pinned until the job finishes (the scheduler then drops it, so an
  /// appended-over snapshot is freed once no job runs on it).
  std::shared_ptr<const RegisteredDataset> dataset;
  std::string engine = "native";  ///< "native" | "la" | "remote"
  core::SliceLineConfig config;
  double deadline_seconds = 0.0;     ///< 0 = none; from execution start
  int64_t memory_budget_bytes = 0;   ///< 0 = the scheduler's shared budget
};

enum class JobState {
  kQueued,
  kRunning,
  kDone,       ///< result available (possibly partial, see outcome)
  kFailed,     ///< error status available
  kCancelled,  ///< cancelled while still queued; never ran
};

const char* JobStateName(JobState state);

/// One submitted job. State transitions are guarded by `mutex` and
/// announced on `cv`; the result/error fields are written exactly once,
/// before the transition to a terminal state. A job cancelled mid-run still
/// ends kDone -- the engines honor cooperative cancellation by returning
/// best-so-far results with outcome.termination == kCancelled.
struct Job {
  int64_t id = 0;
  JobSpec spec;
  /// Fleet-trace id: nonzero when the scheduler runs with tracing enabled.
  /// Every span the job records (server side and, for the remote engine,
  /// worker side) carries it, and the merged timeline keys off it.
  /// Immutable after Submit.
  uint64_t trace_id = 0;
  /// The dataset's name and feature names, copied at Submit and immutable
  /// after it: status polls, reports and the unregister check read these,
  /// never spec.dataset, which FinishJob releases.
  std::string dataset_name;
  std::vector<std::string> feature_names;
  RunContext run_context;  ///< cancellation + deadline + budget for the run
  /// Owned per-job budget when the spec overrides the shared one.
  std::unique_ptr<MemoryBudget> own_budget;

  mutable std::mutex mutex;
  mutable std::condition_variable cv;
  JobState state = JobState::kQueued;
  Status error;  ///< kFailed only
  core::SliceLineResult result;  ///< kDone only
  double queued_seconds = 0.0;  ///< guarded by `mutex` (status polls read it)
  double run_seconds = 0.0;     ///< guarded by `mutex`
  /// Written once in FinishJob, before the terminal transition (both
  /// guarded by `mutex`): the job's obs::RunReport as strict JSON, and its
  /// merged Chrome/Perfetto timeline. Empty for jobs cancelled while
  /// queued (they never ran) and until the job is terminal.
  std::string report_json;
  std::string trace_json;

  JobState CurrentState() const;
  bool Terminal() const;

  /// Blocks until the job reaches a terminal state.
  void WaitDone() const;
};

/// Bounded-queue job scheduler over the shared ThreadPool. Admission
/// control is a hard bound on jobs admitted but not yet finished
/// (queued + running): past the bound Submit returns ResourceExhausted and
/// the server maps that to a structured protocol error instead of letting
/// latecomers starve everything. All jobs share one server-wide memory
/// budget (so concurrent heavy queries degrade cooperatively) unless their
/// spec carries its own.
class Scheduler {
 public:
  struct Options {
    int workers = 4;
    /// Maximum jobs admitted and not yet terminal (queued + running).
    int max_queue = 16;
    /// Server-wide memory budget; <= 0 = unlimited (accounting only).
    int64_t memory_budget_bytes = 0;
    double soft_fraction = 0.8;
    /// Assign every job a nonzero trace id and persist its merged timeline
    /// at finish. Costs nothing unless the TraceRecorder is enabled, except
    /// that remote-engine workers start recording when they see the id.
    bool fleet_tracing = true;
    /// Backs engine == "remote"; jobs naming it are rejected when unset.
    RemoteEngineFn remote_engine;
  };

  explicit Scheduler(const Options& options);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admits and dispatches a job, or rejects with ResourceExhausted (queue
  /// full) / Cancelled (scheduler draining).
  StatusOr<std::shared_ptr<Job>> Submit(JobSpec spec);

  /// nullptr when the id was never issued (or already forgotten).
  std::shared_ptr<Job> Find(int64_t id) const;

  /// Cancels a job: a queued job flips to kCancelled without running; a
  /// running job gets its cancellation token set and finishes with a
  /// partial result. Terminal jobs are left untouched (returns their
  /// state). NotFound for unknown ids.
  StatusOr<JobState> Cancel(int64_t id);

  /// Stops admitting and waits for every admitted job to reach a terminal
  /// state (the SIGTERM drain path). Idempotent.
  void DrainAndStop();

  /// True while any non-terminal job references the named dataset. Used to
  /// refuse unregister_dataset; a job submitted concurrently with the check
  /// is benign (it holds its own snapshot, which outlives the registry
  /// entry).
  bool HasActiveJobsForDataset(const std::string& name) const;

  int64_t queue_depth() const;  ///< admitted, not yet running
  int64_t running() const;
  int64_t jobs_admitted() const;
  int64_t jobs_rejected() const;
  int64_t jobs_completed() const;  ///< kDone
  int64_t jobs_failed() const;
  int64_t jobs_cancelled() const;  ///< cancelled while queued

  MemoryBudget* shared_budget() { return &shared_budget_; }

 private:
  void Execute(const std::shared_ptr<Job>& job);
  void FinishJob(const std::shared_ptr<Job>& job, JobState terminal,
                 Status error, core::SliceLineResult result,
                 std::string report_json, std::string trace_json);
  /// Renders the job's RunReport (result, dist sections, per-worker
  /// counter deltas) and its merged Chrome timeline (server track +
  /// worker tracks from `bundle`). Called outside both mutexes -- it
  /// snapshots the metrics registry and drains the trace recorder.
  void BuildJobArtifacts(const Job& job, JobState terminal,
                         const Status& error,
                         const core::SliceLineResult& result,
                         obs::DistObsBundle bundle, double run_seconds,
                         std::string* report_json,
                         std::string* trace_json) const;
  void UpdateQueueDepthGauge() const;

  const Options options_;
  MemoryBudget shared_budget_;

  mutable std::mutex mutex_;
  std::condition_variable drain_cv_;
  bool draining_ = false;
  int64_t next_job_id_ = 1;
  int64_t queued_ = 0;
  int64_t running_ = 0;
  int64_t admitted_ = 0;
  int64_t rejected_ = 0;
  int64_t completed_ = 0;
  int64_t failed_ = 0;
  int64_t cancelled_ = 0;
  std::map<int64_t, std::shared_ptr<Job>> jobs_;

  // Last member on purpose: destroyed first, so ~ThreadPool joins the
  // workers -- waiting out any closure still inside FinishJob -- while the
  // mutex, condition variable, and counters above are all still alive.
  ThreadPool pool_;
};

}  // namespace sliceline::serve

#endif  // SLICELINE_SERVE_SCHEDULER_H_
