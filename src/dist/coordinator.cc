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
#include "common/stopwatch.h"
#include "dist/fault_injection.h"
#include "obs/json_writer.h"
#include "obs/trace.h"
#include "serve/protocol.h"

namespace sliceline::dist {

namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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

}  // namespace

RemoteSliceEvaluator::RemoteSliceEvaluator(const data::IntMatrix& x0,
                                           const std::vector<double>& errors,
                                           const RemoteDistOptions& options)
    : options_(options),
      offsets_(data::ComputeOffsets(x0)),
      dataset_hash_(FingerprintDataset(x0, errors)),
      n_(x0.rows()),
      full_x0_(x0),
      full_errors_(errors) {
  const int workers = static_cast<int>(options.endpoints.size());
  const std::vector<RowRange> ranges = PartitionRows(n_, workers);
  shards_.reserve(ranges.size());
  for (const RowRange& range : ranges) {
    shards_.push_back(MakeShard(x0, errors, range));
  }
  links_.resize(shards_.size());
  link_obs_.resize(shards_.size());
  shard_owner_.resize(shards_.size());
  for (size_t w = 0; w < links_.size(); ++w) {
    links_[w].endpoint = options.endpoints[w];
    shard_owner_[w] = static_cast<int>(w);
  }
  alive_count_ = static_cast<int>(links_.size());
}

RemoteSliceEvaluator::~RemoteSliceEvaluator() = default;

StatusOr<std::unique_ptr<RemoteSliceEvaluator>> RemoteSliceEvaluator::Create(
    const data::IntMatrix& x0, const std::vector<double>& errors,
    const RemoteDistOptions& options) {
  if (x0.rows() == 0 || x0.cols() == 0) {
    return Status::InvalidArgument("empty feature matrix");
  }
  if (static_cast<int64_t>(errors.size()) != x0.rows()) {
    return Status::InvalidArgument(
        "error vector size " + std::to_string(errors.size()) +
        " does not match " + std::to_string(x0.rows()) + " rows");
  }
  if (options.endpoints.empty()) {
    return Status::InvalidArgument("need at least one worker endpoint");
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
  std::unique_ptr<RemoteSliceEvaluator> eval(
      new RemoteSliceEvaluator(x0, errors, options));
  eval->SetupCluster();
  return eval;
}

StatusOr<obs::JsonValue> RemoteSliceEvaluator::RoundTrip(
    Link& link, serve::WorkerRequest request, int timeout_ms) const {
  request.id = "q" + std::to_string(link.next_request++);
  request.trace_id = options_.trace_id;
  const std::string line = serve::SerializeWorkerRequest(request);
  const int64_t send_us = obs::TraceRecorder::NowMicros();
  SLICELINE_RETURN_NOT_OK(
      link.conn.WriteLine(line, serve::kWorkerMaxLineBytes));
  cost_.broadcast_bytes += static_cast<int64_t>(line.size());
  SLICELINE_ASSIGN_OR_RETURN(
      const std::string reply,
      link.conn.ReadLine(serve::kWorkerMaxLineBytes, timeout_ms));
  const int64_t recv_us = obs::TraceRecorder::NowMicros();
  cost_.gather_bytes += static_cast<int64_t>(reply.size());
  SLICELINE_ASSIGN_OR_RETURN(obs::JsonValue root, obs::ParseJson(reply));
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
    const size_t w = static_cast<size_t>(&link - links_.data());
    if (w < link_obs_.size()) {
      LinkObs& lo = link_obs_[w];
      const int64_t rtt_us = recv_us - send_us;
      if (rtt_us <= lo.best_rtt_us) {
        lo.best_rtt_us = rtt_us;
        lo.clock_offset_us = static_cast<int64_t>(now_us->number_value()) -
                             (send_us + recv_us) / 2;
      }
    }
  }
  link.last_heartbeat = MonotonicSeconds();
  return root;
}

Status RemoteSliceEvaluator::EnsureReady(Link& link) const {
  if (link.connected) return Status::OK();
  StatusOr<SocketConnection> conn =
      link.endpoint.unix_socket.empty()
          ? ConnectTcp(link.endpoint.tcp_port, options_.connect_timeout_ms)
          : ConnectUnix(link.endpoint.unix_socket,
                        options_.connect_timeout_ms);
  SLICELINE_RETURN_NOT_OK(conn.status());
  link.conn = std::move(conn).value();
  link.connected = true;

  serve::WorkerRequest enlist;
  enlist.type = serve::WorkerRequestType::kEnlist;
  enlist.protocol = serve::kWorkerProtocolVersion;
  StatusOr<obs::JsonValue> reply =
      RoundTrip(link, std::move(enlist), options_.request_timeout_ms);
  if (!reply.ok()) {
    link.connected = false;
    link.conn.Close();
    return reply.status();
  }
  const std::string session = reply->GetStringOr("session", "");
  if (session.empty()) {
    link.connected = false;
    link.conn.Close();
    return Status::IoError("worker enlisted without a session id");
  }
  if (session != link.session) {
    // A new session means a restarted worker process: every shard this
    // coordinator believed loaded is gone, and so are its counters.
    link.loaded.clear();
    link.session = session;
    const size_t w = static_cast<size_t>(&link - links_.data());
    if (w < link_obs_.size()) {
      link_obs_[w].session = session;
      link_obs_[w].os_pid = reply->GetIntOr("pid", 0);
      link_obs_[w].counter_baseline.clear();
    }
  }
  return Status::OK();
}

Status RemoteSliceEvaluator::EnsureShardLoaded(Link& link,
                                               int64_t shard) const {
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

  const Shard& unit = shards_[static_cast<size_t>(shard)];
  const int64_t rows = unit.range.size();
  const int64_t cols = unit.x0.cols();
  const int64_t chunk_rows =
      std::max<int64_t>(1, options_.load_chunk_cells / std::max<int64_t>(
                                                           1, cols));
  const int64_t chunks = (rows + chunk_rows - 1) / chunk_rows;
  for (int64_t c = 0; c < chunks; ++c) {
    const int64_t begin = c * chunk_rows;
    const int64_t end = std::min(rows, begin + chunk_rows);
    serve::WorkerRequest load;
    load.type = serve::WorkerRequestType::kLoadShard;
    load.dataset_hash = dataset_hash_;
    load.shard = shard;
    load.chunk.row_begin = unit.range.begin;
    load.chunk.row_end = unit.range.end;
    load.chunk.chunk = c;
    load.chunk.chunks = chunks;
    load.chunk.chunk_row_begin = unit.range.begin + begin;
    load.chunk.cols = cols;
    load.chunk.codes.assign(unit.x0.row(begin),
                            unit.x0.row(begin) + (end - begin) * cols);
    load.chunk.errors.assign(unit.errors.begin() + begin,
                             unit.errors.begin() + end);
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

Status RemoteSliceEvaluator::CollectWorkerObs(size_t w, bool baseline) const {
  Link& link = links_[w];
  serve::WorkerRequest request;
  request.type = serve::WorkerRequestType::kGetSpans;
  SLICELINE_ASSIGN_OR_RETURN(
      obs::JsonValue reply,
      RoundTrip(link, std::move(request), options_.request_timeout_ms));
  std::vector<obs::RemoteSpan> spans;
  std::vector<std::pair<std::string, double>> counters;
  SLICELINE_RETURN_NOT_OK(serve::ParseSpansPayload(reply, &spans, &counters));
  LinkObs& lo = link_obs_[w];
  lo.os_pid = reply.GetIntOr("pid", lo.os_pid);
  if (lo.session.empty()) {
    lo.session = reply.GetStringOr("session", "");
  }
  for (obs::RemoteSpan& span : spans) {
    // The worker drains its whole buffer; keep only spans belonging to our
    // trace (a daemon-held worker may hold leftovers from earlier jobs).
    if (span.trace_id == options_.trace_id) {
      lo.spans.push_back(std::move(span));
    }
  }
  for (const auto& [name, value] : counters) {
    auto [it, inserted] = lo.counter_baseline.try_emplace(name, 0.0);
    if (!baseline && !inserted) {
      const double delta = value - it->second;
      if (delta != 0.0) lo.counter_deltas[name] += delta;
    } else if (!baseline && inserted) {
      // Counter born after the baseline pass: it started at zero.
      if (value != 0.0) lo.counter_deltas[name] += value;
    }
    it->second = value;
  }
  return Status::OK();
}

void RemoteSliceEvaluator::CollectRoundObs() const {
  if (options_.trace_id == 0) return;
  for (size_t w = 0; w < links_.size(); ++w) {
    if (!links_[w].alive || !links_[w].connected) continue;
    // Best-effort: a failed drain only costs this round's remote spans.
    (void)CollectWorkerObs(w, /*baseline=*/false);
  }
}

bool RemoteSliceEvaluator::LoseWorker(size_t worker) const {
  Link& link = links_[worker];
  if (!link.alive) return alive_count_ > 0;
  link.alive = false;
  link.connected = false;
  link.conn.Close();
  --alive_count_;
  ++faults_.workers_lost;
  obs::TraceInstant("dist", "worker_lost", static_cast<int64_t>(worker));
  LOG_WARNING << "dist: worker " << worker << " ("
              << (link.endpoint.unix_socket.empty()
                      ? "port " + std::to_string(link.endpoint.tcp_port)
                      : link.endpoint.unix_socket)
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

void RemoteSliceEvaluator::ReshardLostWorkers() const {
  int next_alive = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (links_[static_cast<size_t>(shard_owner_[s])].alive) continue;
    // Round-robin adoption keeps survivor load balanced (same policy as the
    // simulated evaluator).
    while (!links_[static_cast<size_t>(next_alive)].alive) {
      next_alive = (next_alive + 1) % static_cast<int>(links_.size());
    }
    shard_owner_[s] = next_alive;
    next_alive = (next_alive + 1) % static_cast<int>(links_.size());
    ++faults_.reshards;
    obs::TraceInstant("dist", "reshard", static_cast<int64_t>(s));
  }
}

void RemoteSliceEvaluator::DegradeSetup() {
  faults_.fallback_local = true;
  obs::TraceInstant("dist", "fallback_local");
  fallback_ = std::make_unique<core::SliceEvaluator>(full_x0_, offsets_,
                                                     full_errors_);
  basic_sizes_ = fallback_->basic_sizes();
  basic_error_sums_ = fallback_->basic_error_sums();
  basic_max_errors_ = fallback_->basic_max_errors();
  total_error_ = fallback_->total_error();
  PublishDistStats(cost_, faults_);
}

void RemoteSliceEvaluator::SetupCluster() {
  TRACE_SPAN("dist/setup_cluster", static_cast<int64_t>(links_.size()));
  const size_t num_shards = shards_.size();
  std::vector<serve::ShardBasicStats> stats(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    int attempts = 0;
    for (;;) {
      const size_t owner = static_cast<size_t>(shard_owner_[s]);
      Link& link = links_[owner];
      Status st = [&]() -> Status {
        SLICELINE_RETURN_NOT_OK(
            EnsureShardLoaded(link, static_cast<int64_t>(s)));
        serve::WorkerRequest request;
        request.type = serve::WorkerRequestType::kBasicStats;
        request.dataset_hash = dataset_hash_;
        request.shard = static_cast<int64_t>(s);
        SLICELINE_ASSIGN_OR_RETURN(
            obs::JsonValue reply,
            RoundTrip(link, std::move(request), options_.request_timeout_ms));
        SLICELINE_ASSIGN_OR_RETURN(serve::ShardBasicStats shard_stats,
                                   serve::ParseBasicStatsPayload(reply));
        if (shard_stats.n != shards_[s].range.size() ||
            static_cast<int64_t>(shard_stats.sizes.size()) !=
                offsets_.total) {
          return Status::IoError("worker basic stats have the wrong shape");
        }
        stats[s] = std::move(shard_stats);
        return Status::OK();
      }();
      if (st.ok()) break;
      ++faults_.transient_failures;
      link.connected = false;
      link.conn.Close();
      ++attempts;
      if (attempts > options_.max_retries) {
        attempts = 0;
        if (!LoseWorker(owner)) {
          DegradeSetup();
          return;
        }
        continue;  // resharded owner gets a fresh retry budget
      }
      const double backoff =
          options_.backoff_base_seconds *
          std::pow(options_.backoff_multiplier, attempts - 1);
      ++faults_.retries;
      ++faults_.backoff_events;
      faults_.backoff_seconds += backoff;
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
  }

  // Merge in shard order -- identical FP addition order to the simulated
  // evaluator's constructor.
  const int64_t l = offsets_.total;
  basic_sizes_.assign(static_cast<size_t>(l), 0);
  basic_error_sums_.assign(static_cast<size_t>(l), 0.0);
  basic_max_errors_.assign(static_cast<size_t>(l), 0.0);
  total_error_ = 0.0;
  for (size_t s = 0; s < num_shards; ++s) {
    total_error_ += stats[s].total_error;
    for (int64_t c = 0; c < l; ++c) {
      basic_sizes_[c] += stats[s].sizes[c];
      basic_error_sums_[c] += stats[s].error_sums[c];
      basic_max_errors_[c] =
          std::max(basic_max_errors_[c], stats[s].max_errors[c]);
    }
  }

  // Baseline pass for fleet tracing: drain setup-time spans now and pin
  // counter baselines, so a worker reused across jobs does not leak earlier
  // jobs' counts into this job's deltas.
  if (options_.trace_id != 0) {
    for (size_t w = 0; w < links_.size(); ++w) {
      if (!links_[w].alive || !links_[w].connected) continue;
      (void)CollectWorkerObs(w, /*baseline=*/true);
    }
  }
}

StatusOr<core::EvalResult> RemoteSliceEvaluator::EvaluateDegraded(
    const core::SliceSet& set, const core::SliceLineConfig& config) const {
  if (!faults_.fallback_local) {
    obs::TraceInstant("dist", "fallback_local");
  }
  faults_.fallback_local = true;
  if (fallback_ == nullptr) {
    fallback_ = std::make_unique<core::SliceEvaluator>(full_x0_, offsets_,
                                                       full_errors_);
  }
  PublishDistStats(cost_, faults_);
  return fallback_->Evaluate(set, config);
}

StatusOr<core::EvalResult> RemoteSliceEvaluator::Evaluate(
    const core::SliceSet& set, const core::SliceLineConfig& config) const {
  const size_t count = static_cast<size_t>(set.size());
  core::EvalResult out;
  out.sizes.assign(count, 0.0);
  out.error_sums.assign(count, 0.0);
  out.max_errors.assign(count, 0.0);
  if (count == 0) return out;

  const int64_t round = next_round_++;
  TRACE_SPAN("dist/evaluate_round", round);
  if (round_hook_) round_hook_(round);
  if (fallback_ != nullptr) return EvaluateDegraded(set, config);
  if (alive_count_ == 0) return EvaluateDegraded(set, config);

  Stopwatch round_watch;
  cost_.rounds += 1;

  // One task per (shard, slice block). The block bound caps how much work a
  // lost request forfeits; done-flags make speculative duplicates idempotent.
  struct Task {
    int64_t shard = 0;
    int64_t begin = 0;  ///< slice range [begin, end) of the full set
    int64_t end = 0;
    int attempts = 0;       ///< transient failures on the current owner
    bool speculated = false;
    bool done = false;
  };
  std::vector<Task> tasks;
  const int64_t num_shards = static_cast<int64_t>(shards_.size());
  for (int64_t s = 0; s < num_shards; ++s) {
    for (int64_t begin = 0; begin < set.size();
         begin += options_.max_block_slices) {
      Task task;
      task.shard = s;
      task.begin = begin;
      task.end = std::min(set.size(), begin + options_.max_block_slices);
      tasks.push_back(task);
    }
  }
  std::deque<size_t> pending;
  for (size_t t = 0; t < tasks.size(); ++t) pending.push_back(t);

  // Per-shard full-width partials, filled block by block; aggregated in
  // shard order at the end (bit-identical to the simulated evaluator).
  std::vector<core::EvalResult> partials(static_cast<size_t>(num_shards));
  for (core::EvalResult& partial : partials) {
    partial.sizes.assign(count, 0.0);
    partial.error_sums.assign(count, 0.0);
    partial.max_errors.assign(count, 0.0);
  }

  // Per-link in-flight request (at most one), by task index.
  struct InFlight {
    int task = -1;
    double sent_at = 0.0;
    std::string request_id;
    bool speculative = false;
  };
  std::vector<InFlight> inflight(links_.size());
  size_t tasks_done = 0;

  const RunContext* ctx = config.run_context;

  // Requeues the task (unless a speculative twin already finished it) and
  // applies the transient-failure bookkeeping for `worker`. Returns false
  // when the failure escalated past max_lost_fraction (degrade).
  auto fail_inflight = [&](size_t worker, bool close_connection) -> bool {
    InFlight& flight = inflight[worker];
    const int ti = flight.task;
    flight.task = -1;
    ++faults_.transient_failures;
    if (close_connection) {
      links_[worker].connected = false;
      links_[worker].conn.Close();
    }
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
    links_[worker].ready_at = MonotonicSeconds() + backoff;
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
    request.type = serve::WorkerRequestType::kEvalBlock;
    request.dataset_hash = dataset_hash_;
    request.shard = task.shard;
    request.strategy = config.eval_strategy;
    request.block_size = config.eval_block_size;
    // Propagate the trace context: the worker stamps its spans with the
    // trace id and records the 1-based round as their remote parent.
    request.trace_id = options_.trace_id;
    request.parent_span_id = round + 1;
    for (int64_t i = task.begin; i < task.end; ++i) {
      request.slices.Add(set.Columns(i), set.Columns(i) + set.Length(i));
    }
    request.id = "r" + std::to_string(round) + "-t" + std::to_string(ti) +
                 "-q" + std::to_string(link.next_request++);
    const std::string line = serve::SerializeWorkerRequest(request);
    SLICELINE_RETURN_NOT_OK(
        link.conn.WriteLine(line, serve::kWorkerMaxLineBytes));
    cost_.broadcast_bytes += static_cast<int64_t>(line.size());
    inflight[worker] =
        InFlight{static_cast<int>(ti), MonotonicSeconds(), request.id,
                 speculative};
    return Status::OK();
  };

  while (tasks_done < tasks.size()) {
    if (ctx != nullptr && ctx->ShouldStop()) {
      return StopReasonToStatus(ctx->CheckStop());
    }
    const double now = MonotonicSeconds();
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
        if (!fail_inflight(owner, /*close_connection=*/true)) {
          return EvaluateDegraded(set, config);
        }
      }
    }

    // Straggler detection: dispatch a speculative backup of an old in-flight
    // block to an idle survivor (first valid response wins).
    if (options_.speculative_execution) {
      for (size_t w = 0; w < links_.size(); ++w) {
        const InFlight& flight = inflight[w];
        if (flight.task < 0 || flight.speculative) continue;
        Task& task = tasks[static_cast<size_t>(flight.task)];
        if (task.done || task.speculated) continue;
        if ((now - flight.sent_at) * 1000.0 <
            static_cast<double>(options_.straggler_after_ms)) {
          continue;
        }
        ++faults_.stragglers;
        obs::TraceInstant("dist", "straggler", static_cast<int64_t>(w));
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
            candidate.connected = false;
            candidate.conn.Close();
          }
          break;
        }
      }
    }

    // Receive phase: poll every link with an in-flight request.
    for (size_t w = 0; w < links_.size(); ++w) {
      if (inflight[w].task < 0) continue;
      Link& link = links_[w];
      StatusOr<bool> readable = link.conn.WaitReadable(2);
      if (!readable.ok()) {
        if (!fail_inflight(w, true)) return EvaluateDegraded(set, config);
        continue;
      }
      if (!readable.value()) {
        // Round-trip deadline: a worker that holds a request past the
        // timeout is treated as transiently failed (it may be wedged, dead,
        // or partitioned -- indistinguishable from here).
        if ((MonotonicSeconds() - inflight[w].sent_at) * 1000.0 >
            static_cast<double>(options_.request_timeout_ms)) {
          if (!fail_inflight(w, true)) return EvaluateDegraded(set, config);
        }
        continue;
      }
      StatusOr<std::string> line =
          link.conn.ReadLine(serve::kWorkerMaxLineBytes, 50);
      if (!line.ok()) {
        if (line.status().code() == StatusCode::kDeadlineExceeded) {
          continue;  // partial frame; bytes stay buffered for the next poll
        }
        if (!fail_inflight(w, true)) return EvaluateDegraded(set, config);
        continue;
      }
      cost_.gather_bytes += static_cast<int64_t>(line.value().size());
      progressed = true;

      const int ti = inflight[w].task;
      Task& task = tasks[static_cast<size_t>(ti)];
      const bool speculative = inflight[w].speculative;
      StatusOr<obs::JsonValue> root = obs::ParseJson(line.value());
      if (!root.ok() || !root->is_object() ||
          root->GetStringOr("id", "") != inflight[w].request_id) {
        if (!fail_inflight(w, true)) return EvaluateDegraded(set, config);
        continue;
      }
      if (!root->GetBoolOr("ok", false)) {
        // Structured worker error (e.g. "shard not loaded" after a restart
        // the session check has not seen yet): the connection is fine, but
        // the shard belief is stale.
        link.loaded.erase(task.shard);
        if (!fail_inflight(w, false)) return EvaluateDegraded(set, config);
        continue;
      }
      uint64_t sent_checksum = 0;
      StatusOr<core::EvalResult> partial =
          serve::ParseEvalPayload(*root, &sent_checksum);
      const int64_t shard_rows =
          shards_[static_cast<size_t>(task.shard)].range.size();
      const size_t block = static_cast<size_t>(task.end - task.begin);
      if (!partial.ok() ||
          ChecksumPartial(partial.value()) != sent_checksum ||
          !PartialInvariantsOk(partial.value(), shard_rows, block)) {
        ++faults_.corrupted_partials;
        obs::TraceInstant("dist", "corrupted_partial", task.shard);
        if (!fail_inflight(w, false)) return EvaluateDegraded(set, config);
        continue;
      }
      cost_.worker_busy_seconds += MonotonicSeconds() - inflight[w].sent_at;
      link.last_heartbeat = MonotonicSeconds();
      inflight[w].task = -1;
      if (task.done) continue;  // the speculative twin already landed
      core::EvalResult& shard_partial =
          partials[static_cast<size_t>(task.shard)];
      for (size_t i = 0; i < block; ++i) {
        const size_t at = static_cast<size_t>(task.begin) + i;
        shard_partial.sizes[at] = partial.value().sizes[i];
        shard_partial.error_sums[at] = partial.value().error_sums[i];
        shard_partial.max_errors[at] = partial.value().max_errors[i];
      }
      task.done = true;
      (void)speculative;
      eval_slices_accepted_ += task.end - task.begin;
      ++tasks_done;
      // If a twin of this task is still in flight elsewhere (the straggling
      // primary, or a backup the primary beat), cancel it by dropping that
      // connection -- the link frees up for new work instead of sitting on
      // a response nobody needs.
      for (size_t other = 0; other < links_.size(); ++other) {
        if (other == w || inflight[other].task != ti) continue;
        inflight[other].task = -1;
        links_[other].connected = false;
        links_[other].conn.Close();
      }
    }

    // Liveness probes for idle connected links, so silently dead workers
    // are noticed before work (or speculation) is routed to them.
    for (size_t w = 0; w < links_.size(); ++w) {
      Link& link = links_[w];
      if (!link.alive || !link.connected || inflight[w].task >= 0) continue;
      if ((MonotonicSeconds() - link.last_heartbeat) * 1000.0 <
          static_cast<double>(options_.heartbeat_interval_ms)) {
        continue;
      }
      serve::WorkerRequest beat;
      beat.type = serve::WorkerRequestType::kHeartbeat;
      if (!RoundTrip(link, std::move(beat),
                     std::min(options_.request_timeout_ms, 250))
               .ok()) {
        link.connected = false;
        link.conn.Close();
      }
    }

    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // Aggregate in shard order: shard boundaries never change, so every
  // floating-point sum happens in the same order as the simulated evaluator
  // (and any fault-free run).
  for (size_t s = 0; s < static_cast<size_t>(num_shards); ++s) {
    for (size_t i = 0; i < count; ++i) {
      out.sizes[i] += partials[s].sizes[i];
      out.error_sums[i] += partials[s].error_sums[i];
      out.max_errors[i] =
          std::max(out.max_errors[i], partials[s].max_errors[i]);
    }
  }
  cost_.critical_path_seconds += round_watch.ElapsedSeconds();
  PublishDistStats(cost_, faults_);
  // Round boundary: drain worker span buffers + counter deltas while the
  // connections are warm (outside the critical-path clock).
  CollectRoundObs();
  return out;
}

obs::DistObsBundle RemoteSliceEvaluator::TakeObsBundle() {
  obs::DistObsBundle bundle;
  bundle.trace_id = options_.trace_id;
  for (size_t w = 0; w < link_obs_.size(); ++w) {
    LinkObs& lo = link_obs_[w];
    if (lo.spans.empty() && lo.counter_deltas.empty()) continue;
    obs::ProcessObs process;
    process.label =
        "worker " +
        (lo.session.empty() ? "#" + std::to_string(w) : lo.session);
    process.os_pid = lo.os_pid;
    process.clock_offset_us =
        lo.best_rtt_us == std::numeric_limits<int64_t>::max()
            ? 0
            : lo.clock_offset_us;
    process.spans = std::move(lo.spans);
    lo.spans.clear();
    for (const auto& [name, value] : lo.counter_deltas) {
      process.counters.emplace_back(name, value);
    }
    lo.counter_deltas.clear();
    bundle.workers.push_back(std::move(process));
  }
  bundle.sections["dist_cost"] = {
      {"rounds", static_cast<double>(cost_.rounds)},
      {"broadcast_bytes", static_cast<double>(cost_.broadcast_bytes)},
      {"gather_bytes", static_cast<double>(cost_.gather_bytes)},
      {"worker_busy_seconds", cost_.worker_busy_seconds},
      {"critical_path_seconds", cost_.critical_path_seconds},
      {"eval_slices_accepted", static_cast<double>(eval_slices_accepted_)},
      {"workers", static_cast<double>(links_.size())},
      {"alive_workers", static_cast<double>(alive_count_)},
  };
  bundle.sections["dist_faults"] = {
      {"transient_failures", static_cast<double>(faults_.transient_failures)},
      {"retries", static_cast<double>(faults_.retries)},
      {"backoff_events", static_cast<double>(faults_.backoff_events)},
      {"backoff_seconds", faults_.backoff_seconds},
      {"stragglers", static_cast<double>(faults_.stragglers)},
      {"speculative_reexecutions",
       static_cast<double>(faults_.speculative_reexecutions)},
      {"corrupted_partials", static_cast<double>(faults_.corrupted_partials)},
      {"workers_lost", static_cast<double>(faults_.workers_lost)},
      {"reshards", static_cast<double>(faults_.reshards)},
      {"fallback_local", faults_.fallback_local ? 1.0 : 0.0},
  };
  return bundle;
}

StatusOr<core::SliceLineResult> RunSliceLineRemote(
    const data::IntMatrix& x0, const std::vector<double>& errors,
    const core::SliceLineConfig& config, const RemoteDistOptions& options,
    DistCostStats* cost_out, DistFaultStats* faults_out,
    obs::DistObsBundle* obs_out) {
  SLICELINE_ASSIGN_OR_RETURN(std::unique_ptr<RemoteSliceEvaluator> eval,
                             RemoteSliceEvaluator::Create(x0, errors,
                                                          options));
  SLICELINE_ASSIGN_OR_RETURN(core::SliceLineResult result,
                             core::RunSliceLineWithBackend(*eval, config));
  result.outcome.dist_fallback_local = eval->faults().fallback_local;
  if (cost_out != nullptr) *cost_out = eval->cost();
  if (faults_out != nullptr) *faults_out = eval->faults();
  if (obs_out != nullptr) *obs_out = eval->TakeObsBundle();
  return result;
}

}  // namespace sliceline::dist
