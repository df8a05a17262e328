#include "serve/scheduler.h"

#include <unistd.h>

#include <chrono>
#include <sstream>
#include <utility>
#include <vector>

#include "core/sliceline.h"
#include "core/sliceline_la.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"

namespace sliceline::serve {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Nonzero fleet-trace id: unique across jobs of one process (the id is in
/// the mix) and overwhelmingly likely unique across processes (pid + the
/// steady clock).
uint64_t NewTraceId(int64_t job_id) {
  const uint64_t mixed = SplitMix64(
      static_cast<uint64_t>(obs::TraceRecorder::NowMicros()) ^
      (static_cast<uint64_t>(::getpid()) << 32) ^
      static_cast<uint64_t>(job_id));
  return mixed == 0 ? 1 : mixed;
}

obs::Histogram* JobSecondsHistogram() {
  // Base 1ms, growth 4x, 12 buckets: ~1ms .. ~70min plus overflow.
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Default()->GetHistogram(
          "serve/job_seconds", obs::HistogramOptions{1e-3, 4.0, 12});
  return histogram;
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

JobState Job::CurrentState() const {
  std::lock_guard<std::mutex> lock(mutex);
  return state;
}

bool Job::Terminal() const {
  const JobState s = CurrentState();
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

void Job::WaitDone() const {
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [this] {
    return state == JobState::kDone || state == JobState::kFailed ||
           state == JobState::kCancelled;
  });
}

Scheduler::Scheduler(const Options& options)
    : options_(options),
      shared_budget_(options.memory_budget_bytes, options.soft_fraction),
      pool_(static_cast<size_t>(options.workers > 0 ? options.workers : 1),
            /*inline_when_single=*/false) {}

Scheduler::~Scheduler() { DrainAndStop(); }

StatusOr<std::shared_ptr<Job>> Scheduler::Submit(JobSpec spec) {
  auto job = std::make_shared<Job>();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      ++rejected_;
      return Status::Cancelled("server is draining; not accepting jobs");
    }
    if (queued_ + running_ >= options_.max_queue) {
      ++rejected_;
      obs::MetricsRegistry::Default()
          ->GetCounter("serve/jobs_rejected")
          ->Increment();
      return Status::ResourceExhausted(
          "job queue full (" + std::to_string(queued_ + running_) + "/" +
          std::to_string(options_.max_queue) + " in flight)");
    }
    job->id = next_job_id_++;
    if (spec.dataset != nullptr) {
      job->dataset_name = spec.dataset->name;
      job->feature_names = spec.dataset->dataset.feature_names;
    }
    job->spec = std::move(spec);
    if (options_.fleet_tracing) job->trace_id = NewTraceId(job->id);
    ++queued_;
    ++admitted_;
    jobs_.emplace(job->id, job);
  }
  obs::MetricsRegistry::Default()
      ->GetCounter("serve/jobs_admitted")
      ->Increment();
  UpdateQueueDepthGauge();

  // Wire governance before dispatch so Cancel() on a queued job is visible
  // the moment the worker picks it up.
  if (job->spec.memory_budget_bytes > 0) {
    job->own_budget = std::make_unique<MemoryBudget>(
        job->spec.memory_budget_bytes, options_.soft_fraction);
    job->run_context.set_memory_budget(job->own_budget.get());
  } else {
    job->run_context.set_memory_budget(&shared_budget_);
  }
  job->spec.config.run_context = &job->run_context;

  const double submit_seconds = NowSeconds();
  pool_.Run([this, job, submit_seconds] {
    {
      // Status polls read the timing fields under job->mutex.
      std::lock_guard<std::mutex> lock(job->mutex);
      job->queued_seconds = NowSeconds() - submit_seconds;
    }
    Execute(job);
  });
  return job;
}

void Scheduler::Execute(const std::shared_ptr<Job>& job) {
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    if (job->state == JobState::kCancelled) {
      // Cancelled while queued; the cancel path already did the
      // bookkeeping, this closure just retires and unpins the dataset.
      job->spec.dataset.reset();
      return;
    }
    job->state = JobState::kRunning;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --queued_;
    ++running_;
  }
  UpdateQueueDepthGauge();

  // The deadline is measured from execution start, not submission: a job
  // should not burn its whole budget sitting in the queue.
  if (job->spec.deadline_seconds > 0.0) {
    job->run_context.SetDeadlineAfterSeconds(job->spec.deadline_seconds);
  }

  const double start = NowSeconds();
  obs::DistObsBundle bundle;
  // The engine runs under the job's trace context so every span it records
  // on this thread is stamped with the job's trace id; the lambda scope
  // closes the serve/job span before BuildJobArtifacts drains the recorder,
  // so the span makes it into the job's own timeline.
  StatusOr<core::SliceLineResult> result =
      [&]() -> StatusOr<core::SliceLineResult> {
    obs::ScopedTraceContext trace_context(
        obs::TraceContext{job->trace_id, 0});
    TRACE_SPAN("serve/job", job->id);
    if (job->spec.engine == "remote") {
      if (!options_.remote_engine) {
        return Status::InvalidArgument(
            "engine 'remote' requested but no remote engine is configured");
      }
      bundle.trace_id = job->trace_id;
      return options_.remote_engine(job->spec.dataset->dataset,
                                    job->spec.config, job->trace_id, &bundle);
    }
    if (job->spec.engine == "la") {
      return core::RunSliceLineLA(job->spec.dataset->dataset,
                                  job->spec.config);
    }
    return core::RunSliceLine(job->spec.dataset->dataset, job->spec.config);
  }();
  const double run_seconds = NowSeconds() - start;
  {
    std::lock_guard<std::mutex> lock(job->mutex);
    job->run_seconds = run_seconds;
  }
  JobSecondsHistogram()->Observe(run_seconds);

  std::string report_json;
  std::string trace_json;
  if (result.ok()) {
    core::SliceLineResult value = std::move(result).value();
    BuildJobArtifacts(*job, JobState::kDone, Status::OK(), value,
                      std::move(bundle), run_seconds, &report_json,
                      &trace_json);
    FinishJob(job, JobState::kDone, Status::OK(), std::move(value),
              std::move(report_json), std::move(trace_json));
  } else {
    BuildJobArtifacts(*job, JobState::kFailed, result.status(),
                      core::SliceLineResult{}, std::move(bundle), run_seconds,
                      &report_json, &trace_json);
    FinishJob(job, JobState::kFailed, result.status(),
              core::SliceLineResult{}, std::move(report_json),
              std::move(trace_json));
  }
}

void Scheduler::BuildJobArtifacts(const Job& job, JobState terminal,
                                  const Status& error,
                                  const core::SliceLineResult& result,
                                  obs::DistObsBundle bundle,
                                  double run_seconds,
                                  std::string* report_json,
                                  std::string* trace_json) const {
  // -- the RunReport ---------------------------------------------------------
  obs::RunReport report;
  report.set_tool("sliceline_server");
  report.set_engine(job.spec.engine);
  report.set_dataset(job.dataset_name);
  report.SetConfig(job.spec.config);
  if (terminal == JobState::kDone) {
    report.SetResult(result, job.feature_names);
  }
  report.AddAnnotation("job_id", std::to_string(job.id));
  report.AddAnnotation("job_state", JobStateName(terminal));
  // Decimal string: the id must survive JSON's double-typed numbers.
  report.AddAnnotation("trace_id", std::to_string(job.trace_id));
  if (terminal == JobState::kFailed) {
    report.AddAnnotation("error", error.message());
  }
  report.AddNumericSection("serve_job", {{"run_seconds", run_seconds}});
  for (const auto& [name, values] : bundle.sections) {
    report.AddNumericSection(
        name, std::vector<std::pair<std::string, double>>(values.begin(),
                                                          values.end()));
  }

  // The server's own spans for this job, drained out of the shared
  // recorder (everything else -- other jobs, requests -- stays buffered).
  std::vector<obs::RemoteSpan> server_spans;
  if (job.trace_id != 0) {
    for (const obs::TraceEvent& event :
         obs::TraceRecorder::Default()->TakeEventsForTrace(job.trace_id)) {
      server_spans.push_back(obs::RemoteSpanFromEvent(event));
    }
  }

  // Per-worker metrics snapshots (counter deltas attributed to this job by
  // the coordinator) plus span/clock accounting, one section per worker.
  int64_t worker_span_count = 0;
  for (size_t w = 0; w < bundle.workers.size(); ++w) {
    const obs::ProcessObs& worker = bundle.workers[w];
    worker_span_count += static_cast<int64_t>(worker.spans.size());
    std::vector<std::pair<std::string, double>> values = worker.counters;
    values.emplace_back("os_pid", static_cast<double>(worker.os_pid));
    values.emplace_back("clock_offset_us",
                        static_cast<double>(worker.clock_offset_us));
    values.emplace_back("spans", static_cast<double>(worker.spans.size()));
    report.AddNumericSection("worker_" + std::to_string(w),
                             std::move(values));
    report.AddAnnotation("worker_" + std::to_string(w) + "_label",
                         worker.label);
  }
  report.AddNumericSection(
      "dist_trace",
      {{"server_spans", static_cast<double>(server_spans.size())},
       {"worker_spans", static_cast<double>(worker_span_count)},
       {"processes", static_cast<double>(1 + bundle.workers.size())}});

  std::ostringstream report_os;
  report.WriteJson(report_os);
  *report_json = report_os.str();

  // -- the merged timeline ---------------------------------------------------
  std::vector<obs::ProcessTrack> tracks;
  obs::ProcessTrack server_track;
  server_track.label = obs::TraceRecorder::Default()->process_label();
  server_track.spans = std::move(server_spans);
  tracks.push_back(std::move(server_track));
  for (obs::ProcessObs& worker : bundle.workers) {
    obs::ProcessTrack track;
    track.label = worker.label;
    track.clock_offset_us = worker.clock_offset_us;
    track.spans = std::move(worker.spans);
    tracks.push_back(std::move(track));
  }
  std::ostringstream trace_os;
  obs::WriteMergedChromeTrace(tracks, trace_os);
  *trace_json = trace_os.str();
}

void Scheduler::FinishJob(const std::shared_ptr<Job>& job, JobState terminal,
                          Status error, core::SliceLineResult result,
                          std::string report_json, std::string trace_json) {
  {
    // Both locks (scheduler first, then job) so the terminal state and the
    // scheduler counters become visible atomically: a waiter released by
    // WaitDone must see the updated counters, and a drained scheduler must
    // only hold terminal jobs. No other path nests these two mutexes in the
    // opposite order.
    std::lock_guard<std::mutex> scheduler_lock(mutex_);
    std::lock_guard<std::mutex> job_lock(job->mutex);
    job->error = std::move(error);
    job->result = std::move(result);
    job->report_json = std::move(report_json);
    job->trace_json = std::move(trace_json);
    // The run and its artifacts are done with the snapshot; holding it
    // would keep every appended-over version alive for the job's lifetime.
    job->spec.dataset.reset();
    job->state = terminal;
    --running_;
    if (terminal == JobState::kDone) {
      ++completed_;
    } else {
      ++failed_;
    }
  }
  job->cv.notify_all();
  obs::MetricsRegistry::Default()
      ->GetCounter(terminal == JobState::kDone ? "serve/jobs_completed"
                                               : "serve/jobs_failed")
      ->Increment();
  drain_cv_.notify_all();
  UpdateQueueDepthGauge();
}

std::shared_ptr<Job> Scheduler::Find(int64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

StatusOr<JobState> Scheduler::Cancel(int64_t id) {
  std::shared_ptr<Job> job = Find(id);
  if (job == nullptr) {
    return Status::NotFound("unknown job " + std::to_string(id));
  }
  bool cancelled_while_queued = false;
  JobState state_after;
  {
    // Same lock order as FinishJob (scheduler, then job) so the state flip
    // and the queued_/cancelled_ counters land atomically.
    std::lock_guard<std::mutex> scheduler_lock(mutex_);
    std::lock_guard<std::mutex> job_lock(job->mutex);
    if (job->state == JobState::kQueued) {
      job->state = JobState::kCancelled;
      cancelled_while_queued = true;
      --queued_;
      ++cancelled_;
    } else if (job->state == JobState::kRunning) {
      // Cooperative: the engine notices at the next governance boundary
      // and returns best-so-far results with outcome kCancelled.
      job->run_context.cancellation().Cancel();
    }
    state_after = job->state;
  }
  if (cancelled_while_queued) {
    job->cv.notify_all();
    obs::MetricsRegistry::Default()
        ->GetCounter("serve/jobs_cancelled")
        ->Increment();
    drain_cv_.notify_all();
    UpdateQueueDepthGauge();
  }
  return state_after;
}

void Scheduler::DrainAndStop() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  drain_cv_.wait(lock, [this] { return queued_ + running_ == 0; });
}

bool Scheduler::HasActiveJobsForDataset(const std::string& name) const {
  // Snapshot under the scheduler lock, inspect job state outside it: the
  // per-job mutex inside Terminal() must never nest under mutex_.
  std::vector<std::shared_ptr<Job>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) snapshot.push_back(job);
  }
  for (const std::shared_ptr<Job>& job : snapshot) {
    if (job->dataset_name == name && !job->Terminal()) {
      return true;
    }
  }
  return false;
}

int64_t Scheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

int64_t Scheduler::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

int64_t Scheduler::jobs_admitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return admitted_;
}

int64_t Scheduler::jobs_rejected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rejected_;
}

int64_t Scheduler::jobs_completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_;
}

int64_t Scheduler::jobs_failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

int64_t Scheduler::jobs_cancelled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cancelled_;
}

void Scheduler::UpdateQueueDepthGauge() const {
  int64_t depth;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    depth = queued_;
  }
  obs::MetricsRegistry::Default()
      ->GetGauge("serve/queue_depth")
      ->Set(static_cast<double>(depth));
}

}  // namespace sliceline::serve
