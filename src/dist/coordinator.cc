#include "dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <sstream>
#include <thread>
#include <utility>

#include "common/hashing.h"
#include "common/logging.h"
#include "common/run_context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"

namespace sliceline::dist {

namespace {

/// Loop-time step of an idle recovery loop, and the socket poll per link.
constexpr double kPollSeconds = 0.002;
constexpr int kPollMs = 2;

/// Content fingerprint of the full input; the shard handshake key.
std::string FingerprintDataset(const data::IntMatrix& x0,
                               const std::vector<double>& errors) {
  Fnv1a hasher;
  hasher.Add64(static_cast<uint64_t>(x0.rows()));
  hasher.Add64(static_cast<uint64_t>(x0.cols()));
  hasher.AddBytes(x0.data().data(), x0.data().size() * sizeof(int32_t));
  for (double e : errors) hasher.AddDouble(e);
  return std::to_string(hasher.hash());
}

/// Coordinator-side checks on a gathered partial or a shard's level-1
/// statistics: `count` entries, sizes in [0, shard_rows], maxima finite and
/// non-negative, and each error sum at most size * max (compared after
/// rounding, which is monotone, so a true partial always passes). A
/// corrupted payload that survives the checksum (basic_stats has none) is
/// still rejected here.
bool PartialInvariantsOk(const core::ExactEvalResult& partial,
                         int64_t shard_rows, size_t count) {
  if (partial.sizes.size() != count) return false;
  for (size_t i = 0; i < count; ++i) {
    const double max = partial.max_errors[i];
    if (partial.sizes[i] < 0 || partial.sizes[i] > shard_rows ||
        !(std::isfinite(max) && max >= 0.0) ||
        !(partial.error_sums[i].ToDouble() <=
          static_cast<double>(partial.sizes[i]) * max)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string DistFaultStats::Summary() const {
  std::ostringstream out;
  out << "transient=" << transient_failures << " retries=" << retries
      << " backoff=" << backoff_seconds << "s stragglers=" << stragglers
      << " speculative=" << speculative_reexecutions
      << " corrupted=" << corrupted_partials << " lost=" << workers_lost
      << " reshards=" << reshards
      << " fallback=" << (fallback_local ? "yes" : "no");
  return out.str();
}

Coordinator::Coordinator(const data::IntMatrix& x0,
                         const std::vector<double>& errors,
                         data::FeatureOffsets offsets,
                         const DistOptions& options, FaultInjector injector)
    : options_(options),
      offsets_(std::move(offsets)),
      dataset_hash_(FingerprintDataset(x0, errors)),
      n_(x0.rows()),
      full_x0_(x0),
      full_errors_(errors),
      injector_(std::move(injector)) {
  const bool in_process = options.endpoints.empty();
  if (in_process) {
    simulated_clock_ = std::make_unique<SimulatedClock>();
    clock_ = simulated_clock_.get();
  } else {
    clock_ = SteadyClock::Default();
  }
  const int workers = in_process
                          ? options.local_workers
                          : static_cast<int>(options.endpoints.size());
  ranges_ = PartitionRows(n_, workers);
  links_.resize(ranges_.size());
  shard_owner_.resize(ranges_.size());
  for (size_t w = 0; w < links_.size(); ++w) {
    Link& link = links_[w];
    if (in_process) {
      link.transport = MakeInProcessLink();
      link.label = "in-process #" + std::to_string(w);
    } else {
      const WorkerEndpoint& endpoint = options.endpoints[w];
      link.transport = MakeSocketLink(endpoint, options.connect_timeout_ms);
      link.label = endpoint.unix_socket.empty()
                       ? "port " + std::to_string(endpoint.tcp_port)
                       : endpoint.unix_socket;
    }
    if (injector_.enabled()) {
      link.transport = MakeFaultyLink(std::move(link.transport), &injector_,
                                      static_cast<int>(w), clock_);
    }
    shard_owner_[w] = static_cast<int>(w);
  }
  alive_count_ = static_cast<int>(links_.size());
}

Coordinator::~Coordinator() = default;

StatusOr<std::unique_ptr<Coordinator>> Coordinator::Create(
    const data::IntMatrix& x0, const std::vector<double>& errors,
    const DistOptions& options, FaultInjector injector) {
  // The data part of the engines' input check; a run checks its own config.
  SLICELINE_RETURN_NOT_OK(
      core::CheckInputs(x0, errors, core::SliceLineConfig()));
  SLICELINE_RETURN_NOT_OK(core::CheckErrors(errors));
  SLICELINE_ASSIGN_OR_RETURN(data::FeatureOffsets offsets,
                             data::CheckedOffsets(x0));
  if (options.endpoints.empty() == (options.local_workers < 1)) {
    return Status::InvalidArgument(
        "need exactly one fleet: worker endpoints or local_workers >= 1");
  }
  if (options.endpoints.empty() && options.trace_id != 0) {
    return Status::InvalidArgument("trace_id requires a socket fleet");
  }
  if (options.max_retries < 0) {
    return Status::InvalidArgument("max_retries must be >= 0");
  }
  if (!(options.max_lost_fraction >= 0.0 && options.max_lost_fraction <= 1.0)) {
    return Status::InvalidArgument("max_lost_fraction must be in [0, 1]");
  }
  if (options.max_block_slices < 1 || options.load_chunk_cells < 1) {
    return Status::InvalidArgument(
        "max_block_slices and load_chunk_cells must be >= 1");
  }
  if (!injector.enabled()) injector = FaultInjector(options.fault);
  std::unique_ptr<Coordinator> eval(
      new Coordinator(x0, errors, std::move(offsets), options,
                      std::move(injector)));
  eval->SetupCluster();
  return eval;
}

void Coordinator::Idle(double seconds) const {
  if (simulated_clock_ != nullptr) {
    simulated_clock_->Advance(seconds);
  } else {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

Status Coordinator::Send(Link& link, serve::WorkerRequest* request) const {
  request->id = "q" + std::to_string(link.next_request++);
  request->trace_id = options_.trace_id;
  const std::string line = serve::SerializeWorkerRequest(*request);
  SLICELINE_RETURN_NOT_OK(link.transport->Send(line));
  cost_.broadcast_bytes += static_cast<int64_t>(line.size());
  return Status::OK();
}

StatusOr<obs::JsonValue> Coordinator::RoundTrip(Link& link,
                                                serve::WorkerRequest request,
                                                int timeout_ms) const {
  const int64_t send_us = obs::TraceRecorder::NowMicros();
  SLICELINE_RETURN_NOT_OK(Send(link, &request));
  const double deadline = clock_->NowSeconds() + timeout_ms / 1000.0;
  std::optional<LinkReply> reply;
  for (;;) {
    const int remaining_ms = static_cast<int>(
        std::max(0.0, (deadline - clock_->NowSeconds()) * 1000.0));
    SLICELINE_ASSIGN_OR_RETURN(reply, link.transport->Poll(remaining_ms));
    if (reply.has_value()) break;
    if (clock_->NowSeconds() >= deadline) {
      return Status::DeadlineExceeded("worker reply timed out");
    }
    Idle(kPollSeconds);
  }
  const int64_t recv_us = obs::TraceRecorder::NowMicros();
  cost_.gather_bytes += static_cast<int64_t>(reply->line.size());
  SLICELINE_ASSIGN_OR_RETURN(obs::JsonValue root, obs::ParseJson(reply->line));
  if (!root.is_object()) {
    return Status::IoError("worker reply is not a JSON object");
  }
  if (root.GetStringOr("id", "") != request.id) {
    return Status::IoError("worker reply correlation id mismatch");
  }
  if (!root.GetBoolOr("ok", false)) {
    const obs::JsonValue* error = root.Find("error");
    if (error != nullptr && error->is_object()) {
      return serve::StatusFromError(error->GetStringOr("code", "internal"),
                                    error->GetStringOr("message", ""));
    }
    return Status::IoError("worker reply missing error detail");
  }
  // Clock-offset estimation from replies carrying the worker's steady-clock
  // sample (enlist / heartbeat / get_spans): assume the sample was taken at
  // the round-trip midpoint and keep the minimum-RTT estimate, whose
  // midpoint uncertainty is tightest.
  const obs::JsonValue* now_us = root.Find("now_us");
  if (now_us != nullptr && now_us->is_number()) {
    const int64_t rtt_us = recv_us - send_us;
    if (rtt_us <= link.best_rtt_us) {
      link.best_rtt_us = rtt_us;
      link.clock_offset_us = static_cast<int64_t>(now_us->number_value()) -
                           (send_us + recv_us) / 2;
    }
  }
  link.last_heartbeat = clock_->NowSeconds();
  return root;
}

void Coordinator::Disconnect(Link& link) const {
  link.connected = false;
  link.transport->Close();
}

Status Coordinator::EnsureReady(Link& link) const {
  if (link.connected) return Status::OK();
  SLICELINE_RETURN_NOT_OK(link.transport->Connect());
  link.connected = true;

  serve::WorkerRequest enlist;
  enlist.type = serve::WorkerRequestType::kEnlist;
  enlist.protocol = serve::kWorkerProtocolVersion;
  StatusOr<obs::JsonValue> reply =
      RoundTrip(link, std::move(enlist), options_.request_timeout_ms);
  if (!reply.ok()) {
    Disconnect(link);
    return reply.status();
  }
  const std::string session = reply->GetStringOr("session", "");
  if (session.empty()) {
    Disconnect(link);
    return Status::IoError("worker enlisted without a session id");
  }
  if (session != link.session) {
    // A new session means a restarted worker process: every shard this
    // coordinator believed loaded is gone, and so are its counters.
    link.loaded.clear();
    link.session = session;
    link.os_pid = reply->GetIntOr("pid", 0);
    link.counter_baseline.clear();
  }
  return Status::OK();
}

Status Coordinator::EnsureShardLoaded(Link& link, int64_t shard) const {
  SLICELINE_RETURN_NOT_OK(EnsureReady(link));
  if (link.loaded.count(shard) > 0) return Status::OK();

  serve::WorkerRequest probe;
  probe.type = serve::WorkerRequestType::kHasShard;
  probe.dataset_hash = dataset_hash_;
  probe.shard = shard;
  SLICELINE_ASSIGN_OR_RETURN(
      obs::JsonValue reply,
      RoundTrip(link, std::move(probe), options_.request_timeout_ms));
  if (reply.GetBoolOr("loaded", false)) {
    link.loaded.insert(shard);
    return Status::OK();
  }

  const RowRange& range = ranges_[static_cast<size_t>(shard)];
  const int64_t rows = range.size();
  const int64_t cols = full_x0_.cols();
  const int64_t chunk_rows =
      std::max<int64_t>(1, options_.load_chunk_cells / std::max<int64_t>(
                                                           1, cols));
  const int64_t chunks = (rows + chunk_rows - 1) / chunk_rows;
  for (int64_t c = 0; c < chunks; ++c) {
    const int64_t begin = range.begin + c * chunk_rows;
    const int64_t end = std::min(range.end, begin + chunk_rows);
    serve::WorkerRequest load;
    load.type = serve::WorkerRequestType::kLoadShard;
    load.dataset_hash = dataset_hash_;
    load.shard = shard;
    load.chunk.row_begin = range.begin;
    load.chunk.row_end = range.end;
    load.chunk.chunk = c;
    load.chunk.chunks = chunks;
    load.chunk.chunk_row_begin = begin;
    load.chunk.cols = cols;
    load.chunk.codes.assign(full_x0_.row(begin),
                            full_x0_.row(begin) + (end - begin) * cols);
    load.chunk.errors.assign(full_errors_.begin() + begin,
                             full_errors_.begin() + end);
    if (c == 0) load.chunk.fdom = offsets_.fdom;
    SLICELINE_ASSIGN_OR_RETURN(
        obs::JsonValue ack,
        RoundTrip(link, std::move(load), options_.request_timeout_ms));
    if (c == chunks - 1 && !ack.GetBoolOr("loaded", false)) {
      return Status::IoError("worker did not confirm shard load");
    }
  }
  link.loaded.insert(shard);
  return Status::OK();
}

Status Coordinator::CollectWorkerObs(size_t w, bool baseline) const {
  Link& link = links_[w];
  serve::WorkerRequest request;
  request.type = serve::WorkerRequestType::kGetSpans;
  SLICELINE_ASSIGN_OR_RETURN(
      obs::JsonValue reply,
      RoundTrip(link, std::move(request), options_.request_timeout_ms));
  std::vector<obs::RemoteSpan> spans;
  std::vector<std::pair<std::string, double>> counters;
  SLICELINE_RETURN_NOT_OK(serve::ParseSpansPayload(reply, &spans, &counters));
  link.os_pid = reply.GetIntOr("pid", link.os_pid);
  for (obs::RemoteSpan& span : spans) {
    // The worker drains its whole buffer; keep only spans belonging to our
    // trace (a daemon-held worker may hold leftovers from earlier jobs).
    if (span.trace_id == options_.trace_id) {
      link.spans.push_back(std::move(span));
    }
  }
  for (const auto& [name, value] : counters) {
    auto [it, inserted] = link.counter_baseline.try_emplace(name, 0.0);
    if (!baseline && !inserted) {
      const double delta = value - it->second;
      if (delta != 0.0) link.counter_deltas[name] += delta;
    } else if (!baseline && inserted) {
      // Counter born after the baseline pass: it started at zero.
      if (value != 0.0) link.counter_deltas[name] += value;
    }
    it->second = value;
  }
  return Status::OK();
}

void Coordinator::CollectFleetObs(bool baseline) const {
  if (options_.trace_id == 0) return;
  for (size_t w = 0; w < links_.size(); ++w) {
    if (!links_[w].alive || !links_[w].connected) continue;
    // Best-effort: a failed drain only costs this round's remote spans.
    (void)CollectWorkerObs(w, baseline);
  }
}

bool Coordinator::LoseWorker(size_t worker) const {
  Link& link = links_[worker];
  if (!link.alive) return alive_count_ > 0;
  link.alive = false;
  Disconnect(link);
  --alive_count_;
  ++faults_.workers_lost;
  obs::TraceInstant("dist", "worker_lost", static_cast<int64_t>(worker));
  LOG_WARNING << "dist: worker " << worker << " (" << link.label
              << ") declared lost after exhausted retries";
  const double lost_fraction =
      1.0 - static_cast<double>(alive_count_) /
                static_cast<double>(links_.size());
  if (alive_count_ == 0 || lost_fraction > options_.max_lost_fraction) {
    return false;
  }
  ReshardLostWorkers();
  return true;
}

void Coordinator::ReshardLostWorkers() const {
  int next_alive = 0;
  for (size_t s = 0; s < shard_owner_.size(); ++s) {
    if (links_[static_cast<size_t>(shard_owner_[s])].alive) continue;
    // Round-robin adoption keeps survivor load balanced.
    while (!links_[static_cast<size_t>(next_alive)].alive) {
      next_alive = (next_alive + 1) % static_cast<int>(links_.size());
    }
    shard_owner_[s] = next_alive;
    next_alive = (next_alive + 1) % static_cast<int>(links_.size());
    ++faults_.reshards;
    obs::TraceInstant("dist", "reshard", static_cast<int64_t>(s));
  }
}

const core::SliceEvaluator& Coordinator::Degrade() const {
  if (!faults_.fallback_local) {
    obs::TraceInstant("dist", "fallback_local");
  }
  faults_.fallback_local = true;
  if (fallback_ == nullptr) {
    fallback_ = std::make_unique<core::SliceEvaluator>(full_x0_, offsets_,
                                                       full_errors_);
  }
  Publish();
  return *fallback_;
}

void Coordinator::SetupCluster() {
  TRACE_SPAN("dist/setup_cluster", static_cast<int64_t>(links_.size()));
  std::vector<Task> tasks(ranges_.size());
  for (size_t s = 0; s < tasks.size(); ++s) {
    tasks[s].shard = static_cast<int64_t>(s);
  }
  core::ExactEvalResult merged(static_cast<size_t>(offsets_.total));
  StatusOr<bool> completed = RunTasks(
      /*round=*/-1, std::move(tasks),
      [](const Task&, serve::WorkerRequest* request) {
        request->type = serve::WorkerRequestType::kBasicStats;
      },
      [&](const Task& task, const obs::JsonValue& reply) {
        StatusOr<serve::ShardBasicStats> shard_stats =
            serve::ParseBasicStatsPayload(reply);
        const int64_t rows = ranges_[static_cast<size_t>(task.shard)].size();
        if (!shard_stats.ok() || shard_stats->n != rows ||
            !PartialInvariantsOk(shard_stats->columns, rows,
                                 merged.sizes.size())) {
          return false;
        }
        // Exact sums: the shards may land in any order.
        for (size_t c = 0; c < merged.sizes.size(); ++c) {
          merged.Add(c, shard_stats->columns, c);
        }
        return true;
      },
      /*ctx=*/nullptr);
  if (!completed.ok() || !completed.value()) {
    const core::SliceEvaluator& local = Degrade();
    basic_sizes_ = local.basic_sizes();
    basic_error_sums_ = local.basic_error_sums();
    basic_max_errors_ = local.basic_max_errors();
    total_error_ = local.total_error();
    return;
  }
  // Feature 0's columns partition the rows: their sums add up to the total.
  linalg::ExactSum total;
  for (int64_t c = offsets_.fb[0]; c < offsets_.fe[0]; ++c) {
    total.Add(merged.error_sums[static_cast<size_t>(c)]);
  }
  total_error_ = total.ToDouble();
  basic_sizes_ = std::move(merged.sizes);
  basic_error_sums_ = merged.Round().error_sums;
  basic_max_errors_ = std::move(merged.max_errors);

  // Baseline pass for fleet tracing: drain setup-time spans now and pin
  // counter baselines, so a worker reused across jobs does not leak earlier
  // jobs' counts into this job's deltas.
  CollectFleetObs(/*baseline=*/true);
}

StatusOr<core::EvalResult> Coordinator::Evaluate(
    const core::SliceSet& set, const core::SliceLineConfig& config) const {
  const size_t count = static_cast<size_t>(set.size());
  if (count == 0) return core::EvalResult();

  const int64_t round = next_round_++;
  TRACE_SPAN("dist/evaluate_round", round);
  if (round_hook_) round_hook_(round);
  if (fallback_ != nullptr || alive_count_ == 0) {
    return Degrade().Evaluate(set, config);
  }
  cost_.rounds += 1;

  // One task per (shard, slice block). The block bound caps how much work a
  // lost request forfeits.
  std::vector<Task> tasks;
  for (int64_t s = 0; s < static_cast<int64_t>(ranges_.size()); ++s) {
    for (int64_t begin = 0; begin < set.size();
         begin += options_.max_block_slices) {
      Task task;
      task.shard = s;
      task.begin = begin;
      task.end = std::min(set.size(), begin + options_.max_block_slices);
      tasks.push_back(task);
    }
  }
  // Every accepted block adds its exact partial straight into the totals;
  // the recovery loop accepts each task once, in whatever order replies land.
  core::ExactEvalResult total(count);
  SLICELINE_ASSIGN_OR_RETURN(
      const bool completed,
      RunTasks(
          round, std::move(tasks),
          [&](const Task& task, serve::WorkerRequest* request) {
            request->type = serve::WorkerRequestType::kEvalBlock;
            request->strategy = config.eval_strategy;
            request->block_size = config.eval_block_size;
            for (int64_t i = task.begin; i < task.end; ++i) {
              request->slices.Add(set.Columns(i),
                                  set.Columns(i) + set.Length(i));
            }
          },
          [&](const Task& task, const obs::JsonValue& reply) {
            uint64_t sent_checksum = 0;
            StatusOr<core::ExactEvalResult> partial =
                serve::ParseEvalPayload(reply, &sent_checksum);
            const size_t block = static_cast<size_t>(task.end - task.begin);
            if (!partial.ok() ||
                ChecksumPartial(*partial) != sent_checksum ||
                !PartialInvariantsOk(
                    *partial, ranges_[static_cast<size_t>(task.shard)].size(),
                    block)) {
              return false;
            }
            for (size_t i = 0; i < block; ++i) {
              total.Add(static_cast<size_t>(task.begin) + i, *partial, i);
            }
            eval_slices_accepted_ += task.end - task.begin;
            return true;
          },
          config.run_context));
  if (!completed) return Degrade().Evaluate(set, config);
  core::EvalResult out = total.Round();
  Publish();
  // Round boundary: drain worker span buffers + counter deltas while the
  // connections are warm (outside the critical-path clock).
  CollectFleetObs(/*baseline=*/false);
  return out;
}

StatusOr<bool> Coordinator::RunTasks(
    int64_t round, std::vector<Task> tasks,
    const std::function<void(const Task&, serve::WorkerRequest*)>& build,
    const std::function<bool(const Task&, const obs::JsonValue&)>& accept,
    const RunContext* ctx) const {
  std::deque<size_t> pending;
  for (size_t t = 0; t < tasks.size(); ++t) pending.push_back(t);

  // Per-link in-flight request (at most one), by task index.
  struct InFlight {
    int task = -1;
    double sent_at = 0.0;
    std::string request_id;
    bool speculative = false;
    bool straggling = false;  ///< already counted as a straggler
  };
  std::vector<InFlight> inflight(links_.size());
  // This round's busy time and backoff per link; the slowest link's sum is
  // the round's critical path.
  std::vector<double> link_busy(links_.size(), 0.0);
  std::vector<double> link_backoff(links_.size(), 0.0);
  size_t tasks_done = 0;

  // Requeues the task (unless a speculative twin already finished it) and
  // applies the transient-failure bookkeeping for `worker`. Returns false
  // when the failure escalated past max_lost_fraction (degrade).
  auto fail_inflight = [&](size_t worker, bool close_connection) -> bool {
    InFlight& flight = inflight[worker];
    const int ti = flight.task;
    flight.task = -1;
    ++faults_.transient_failures;
    if (close_connection) Disconnect(links_[worker]);
    if (ti < 0 || tasks[static_cast<size_t>(ti)].done) return true;
    Task& task = tasks[static_cast<size_t>(ti)];
    if (flight.speculative) {
      // The primary copy is still in flight; just drop the backup.
      task.speculated = false;
      return true;
    }
    ++task.attempts;
    if (task.attempts > options_.max_retries) {
      task.attempts = 0;
      pending.push_front(static_cast<size_t>(ti));
      return LoseWorker(worker);
    }
    const double backoff =
        options_.backoff_base_seconds *
        std::pow(options_.backoff_multiplier, task.attempts - 1);
    links_[worker].ready_at = clock_->NowSeconds() + backoff;
    link_backoff[worker] += backoff;
    ++faults_.retries;
    ++faults_.backoff_events;
    faults_.backoff_seconds += backoff;
    cost_.rounds += 1;  // the retry is a fresh broadcast wave for this block
    pending.push_front(static_cast<size_t>(ti));
    return true;
  };

  auto dispatch = [&](size_t worker, size_t ti, bool speculative) -> Status {
    Link& link = links_[worker];
    const Task& task = tasks[ti];
    SLICELINE_RETURN_NOT_OK(EnsureShardLoaded(link, task.shard));
    serve::WorkerRequest request;
    build(task, &request);
    request.dataset_hash = dataset_hash_;
    request.shard = task.shard;
    // The worker records the 1-based round as its spans' remote parent.
    request.parent_span_id = round + 1;
    SLICELINE_RETURN_NOT_OK(Send(link, &request));
    inflight[worker] = InFlight{static_cast<int>(ti), clock_->NowSeconds(),
                                request.id, speculative};
    return Status::OK();
  };

  while (tasks_done < tasks.size()) {
    if (ctx != nullptr && ctx->ShouldStop()) {
      return StopReasonToStatus(ctx->CheckStop());
    }
    const double now = clock_->NowSeconds();
    bool progressed = false;

    // Dispatch pending tasks to their (current) shard owners.
    for (size_t p = 0; p < pending.size();) {
      const size_t ti = pending[p];
      if (tasks[ti].done) {
        // Finished by a speculative twin while queued for retry; the
        // receive path already counted it.
        pending.erase(pending.begin() + static_cast<int64_t>(p));
        continue;
      }
      const size_t owner =
          static_cast<size_t>(shard_owner_[static_cast<size_t>(
              tasks[ti].shard)]);
      Link& link = links_[owner];
      if (!link.alive || inflight[owner].task >= 0 || now < link.ready_at) {
        ++p;
        continue;
      }
      pending.erase(pending.begin() + static_cast<int64_t>(p));
      Status st = dispatch(owner, ti, /*speculative=*/false);
      if (st.ok()) {
        progressed = true;
      } else {
        inflight[owner].task = static_cast<int>(ti);
        inflight[owner].speculative = false;
        if (!fail_inflight(owner, /*close_connection=*/true)) return false;
      }
    }

    // Straggler detection: a task in flight past straggler_after_ms counts
    // once; with speculation on, a backup copy goes to an idle survivor
    // (first valid response wins).
    for (size_t w = 0; w < links_.size(); ++w) {
      InFlight& flight = inflight[w];
      if (flight.task < 0 || flight.speculative || flight.straggling) continue;
      if ((now - flight.sent_at) * 1000.0 <
          static_cast<double>(options_.straggler_after_ms)) {
        continue;
      }
      flight.straggling = true;
      ++faults_.stragglers;
      obs::TraceInstant("dist", "straggler", static_cast<int64_t>(w));
      Task& task = tasks[static_cast<size_t>(flight.task)];
      if (!options_.speculative_execution || task.done || task.speculated) {
        continue;
      }
      task.speculated = true;
      for (size_t helper = 0; helper < links_.size(); ++helper) {
        Link& candidate = links_[helper];
        if (helper == w || !candidate.alive ||
            inflight[helper].task >= 0 || now < candidate.ready_at) {
          continue;
        }
        if (dispatch(helper, static_cast<size_t>(flight.task),
                     /*speculative=*/true)
                .ok()) {
          ++faults_.speculative_reexecutions;
          obs::TraceInstant("dist", "speculative_reexecution",
                            static_cast<int64_t>(helper));
        } else {
          inflight[helper].task = -1;
          Disconnect(candidate);
        }
        break;
      }
    }

    // Receive phase: poll every link with an in-flight request.
    for (size_t w = 0; w < links_.size(); ++w) {
      if (inflight[w].task < 0) continue;
      Link& link = links_[w];
      StatusOr<std::optional<LinkReply>> reply = link.transport->Poll(kPollMs);
      if (!reply.ok()) {
        if (!fail_inflight(w, true)) return false;
        continue;
      }
      if (!reply->has_value()) {
        // Round-trip deadline: a worker that holds a request past the
        // timeout is treated as transiently failed (it may be wedged, dead,
        // or partitioned -- indistinguishable from here).
        if ((clock_->NowSeconds() - inflight[w].sent_at) * 1000.0 >
                static_cast<double>(options_.request_timeout_ms) &&
            !fail_inflight(w, true)) {
          return false;
        }
        continue;
      }
      const LinkReply& line = **reply;
      cost_.gather_bytes += static_cast<int64_t>(line.line.size());
      cost_.worker_busy_seconds += line.busy_seconds;
      link_busy[w] += line.busy_seconds;
      progressed = true;

      const int ti = inflight[w].task;
      Task& task = tasks[static_cast<size_t>(ti)];
      StatusOr<obs::JsonValue> root = obs::ParseJson(line.line);
      if (!root.ok() || !root->is_object() ||
          root->GetStringOr("id", "") != inflight[w].request_id) {
        if (!fail_inflight(w, true)) return false;
        continue;
      }
      if (!root->GetBoolOr("ok", false)) {
        // Structured worker error (e.g. "shard not loaded" after a restart
        // the session check has not seen yet): the connection is fine, but
        // the shard belief is stale.
        link.loaded.erase(task.shard);
        if (!fail_inflight(w, false)) return false;
        continue;
      }
      if (task.done) {  // the speculative twin already landed
        inflight[w].task = -1;
        continue;
      }
      if (!accept(task, *root)) {
        ++faults_.corrupted_partials;
        obs::TraceInstant("dist", "corrupted_partial", task.shard);
        if (!fail_inflight(w, false)) return false;
        continue;
      }
      link.last_heartbeat = clock_->NowSeconds();
      inflight[w].task = -1;
      task.done = true;
      ++tasks_done;
      // If a twin of this task is still in flight elsewhere (the straggling
      // primary, or a backup the primary beat), cancel it by dropping that
      // connection -- the link frees up for new work instead of sitting on
      // a response nobody needs.
      for (size_t other = 0; other < links_.size(); ++other) {
        if (other == w || inflight[other].task != ti) continue;
        inflight[other].task = -1;
        Disconnect(links_[other]);
      }
    }

    // Liveness probes for idle connected links, so silently dead workers
    // are noticed before work (or speculation) is routed to them.
    for (size_t w = 0; w < links_.size(); ++w) {
      Link& link = links_[w];
      if (!link.alive || !link.connected || inflight[w].task >= 0) continue;
      if ((clock_->NowSeconds() - link.last_heartbeat) * 1000.0 <
          static_cast<double>(options_.heartbeat_interval_ms)) {
        continue;
      }
      serve::WorkerRequest beat;
      beat.type = serve::WorkerRequestType::kHeartbeat;
      if (!RoundTrip(link, std::move(beat),
                     std::min(options_.request_timeout_ms, 250))
               .ok()) {
        Disconnect(link);
      }
    }

    if (!progressed) Idle(kPollSeconds);
  }

  double slowest = 0.0;
  for (size_t w = 0; w < links_.size(); ++w) {
    slowest = std::max(slowest, link_busy[w] + link_backoff[w]);
  }
  cost_.critical_path_seconds += slowest;
  return true;
}

std::map<std::string, std::map<std::string, double>> Coordinator::Sections()
    const {
  return {
      {"dist_cost",
       {
           {"rounds", static_cast<double>(cost_.rounds)},
           {"broadcast_bytes", static_cast<double>(cost_.broadcast_bytes)},
           {"gather_bytes", static_cast<double>(cost_.gather_bytes)},
           {"worker_busy_seconds", cost_.worker_busy_seconds},
           {"critical_path_seconds", cost_.critical_path_seconds},
           {"estimated_comm_seconds", cost_.EstimatedCommSeconds()},
           {"eval_slices_accepted",
            static_cast<double>(eval_slices_accepted_)},
           {"workers", static_cast<double>(links_.size())},
           {"alive_workers", static_cast<double>(alive_count_)},
       }},
      {"dist_faults",
       {
           {"transient_failures",
            static_cast<double>(faults_.transient_failures)},
           {"retries", static_cast<double>(faults_.retries)},
           {"backoff_events", static_cast<double>(faults_.backoff_events)},
           {"backoff_seconds", faults_.backoff_seconds},
           {"stragglers", static_cast<double>(faults_.stragglers)},
           {"speculative_reexecutions",
            static_cast<double>(faults_.speculative_reexecutions)},
           {"corrupted_partials",
            static_cast<double>(faults_.corrupted_partials)},
           {"workers_lost", static_cast<double>(faults_.workers_lost)},
           {"reshards", static_cast<double>(faults_.reshards)},
           {"fallback_local", faults_.fallback_local ? 1.0 : 0.0},
       }},
  };
}

void Coordinator::Publish() const {
  if (!obs::MetricsEnabled()) return;
  for (const auto& [section, values] : Sections()) {
    for (const auto& [name, value] : values) {
      obs::MetricsRegistry::Default()->GetGauge("dist/" + name)->Set(value);
    }
  }
}

obs::DistObsBundle Coordinator::TakeObsBundle() {
  obs::DistObsBundle bundle;
  bundle.trace_id = options_.trace_id;
  for (size_t w = 0; w < links_.size(); ++w) {
    Link& link = links_[w];
    if (link.spans.empty() && link.counter_deltas.empty()) continue;
    obs::ProcessObs process;
    process.label =
        "worker " +
        (link.session.empty() ? "#" + std::to_string(w) : link.session);
    process.os_pid = link.os_pid;
    process.clock_offset_us =
        link.best_rtt_us == std::numeric_limits<int64_t>::max()
            ? 0
            : link.clock_offset_us;
    process.spans = std::exchange(link.spans, {});
    for (const auto& [name, value] : link.counter_deltas) {
      process.counters.emplace_back(name, value);
    }
    link.counter_deltas.clear();
    bundle.workers.push_back(std::move(process));
  }
  bundle.sections = Sections();
  return bundle;
}

StatusOr<core::SliceLineResult> RunSliceLineDistributed(
    const data::IntMatrix& x0, const std::vector<double>& errors,
    const core::SliceLineConfig& config, const DistOptions& options,
    DistCostStats* cost_out, DistFaultStats* faults_out,
    obs::DistObsBundle* obs_out) {
  SLICELINE_RETURN_NOT_OK(core::CheckInputs(x0, errors, config));
  SLICELINE_ASSIGN_OR_RETURN(std::unique_ptr<Coordinator> eval,
                             Coordinator::Create(x0, errors, options));
  SLICELINE_ASSIGN_OR_RETURN(core::SliceLineResult result,
                             core::RunSliceLineWithBackend(*eval, config));
  result.outcome.dist_fallback_local = eval->faults().fallback_local;
  if (cost_out != nullptr) *cost_out = eval->cost();
  if (faults_out != nullptr) *faults_out = eval->faults();
  if (obs_out != nullptr) *obs_out = eval->TakeObsBundle();
  return result;
}

}  // namespace sliceline::dist
