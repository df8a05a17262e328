#include "serve/server.h"

#include <chrono>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"

namespace sliceline::serve {

namespace {

constexpr int kPollMillis = 200;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

obs::Histogram* RequestSecondsHistogram() {
  // Base 100us, growth 4x, 12 buckets: ~100us .. ~7min plus overflow.
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Default()->GetHistogram(
          "serve/request_seconds", obs::HistogramOptions{1e-4, 4.0, 12});
  return histogram;
}

/// Registers every serve metric up front so /metrics exposes the full
/// family set (queue depth, cache hit/miss, latency histogram) from the
/// first scrape, not only after the first event of each kind.
void PreregisterServeMetrics() {
  obs::MetricsRegistry* registry = obs::MetricsRegistry::Default();
  for (const char* name :
       {"serve/jobs_admitted", "serve/jobs_rejected", "serve/jobs_completed",
        "serve/jobs_failed", "serve/jobs_cancelled", "serve/cache/hits",
        "serve/cache/misses", "serve/cache/evictions",
        "serve/result_cache/evictions", "serve/result_cache/invalidations",
        "serve/connections_total", "serve/connections_rejected",
        "serve/requests_total", "serve/requests_malformed",
        "stream/appends_total", "stream/alerts_total",
        "stream/candidates_cached", "stream/candidates_delta",
        "stream/candidates_full"}) {
    registry->GetCounter(name);
  }
  registry->GetGauge("serve/queue_depth")->Set(0.0);
  registry->GetGauge("serve/open_connections")->Set(0.0);
  registry->GetGauge("serve/result_cache/entries")->Set(0.0);
  RequestSecondsHistogram();
}

void CountRequest(const char* name) {
  obs::MetricsRegistry::Default()->GetCounter(name)->Increment();
}

/// One fired alert as a JSON object (shared by append_rows responses,
/// watch status, and server_stats).
void WriteAlertJson(obs::JsonWriter* writer, const stream::StreamAlert& alert) {
  writer->BeginObject();
  writer->Key("dataset");
  writer->String(alert.dataset);
  writer->Key("slice");
  writer->String(alert.slice_display);
  writer->Key("score");
  writer->Double(alert.score);
  writer->Key("at_rows");
  writer->Int(alert.at_rows);
  writer->Key("at_seconds");
  writer->Double(alert.at_seconds);
  writer->Key("fingerprint");
  writer->String(std::to_string(alert.fingerprint));
  writer->EndObject();
}

/// Alerts kept for server_stats / watch status; old ones fall off.
constexpr size_t kMaxRecentAlerts = 32;

/// Range checks shared by find_slices and watch: k and max_level must also
/// fit the engine's int fields.
Status CheckSearchParams(int64_t k, double alpha, int64_t sigma,
                         int64_t max_level) {
  if (k < 1 || k > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("k must be in [1, 2147483647]");
  }
  if (!(alpha > 0.0 && alpha <= 1.0)) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (sigma < 0) return Status::InvalidArgument("sigma must be >= 0");
  if (max_level < 0 || max_level > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("max_level must be in [0, 2147483647]");
  }
  return Status::OK();
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options),
      cache_(static_cast<size_t>(
          options.cache_capacity > 0 ? options.cache_capacity : 0)) {
  Scheduler::Options scheduler_options;
  scheduler_options.workers = options.workers;
  scheduler_options.max_queue = options.max_queue;
  scheduler_options.memory_budget_bytes =
      options.memory_budget_mb > 0 ? options.memory_budget_mb * (1 << 20) : 0;
  scheduler_options.fleet_tracing = options.fleet_tracing;
  scheduler_options.remote_engine = options.remote_engine;
  scheduler_ = std::make_unique<Scheduler>(scheduler_options);
}

Server::~Server() {
  RequestShutdown();
  if (started_ && !waited_) Wait();
}

Status Server::Start() {
  if (options_.unix_socket.empty() && options_.tcp_port < 0) {
    return Status::InvalidArgument(
        "server needs a unix socket path or a TCP port");
  }
  obs::SetMetricsEnabled(true);
  PreregisterServeMetrics();
  if (!options_.trace_out.empty() || options_.fleet_tracing) {
    obs::TraceRecorder::Default()->SetProcessLabel("server");
    obs::TraceRecorder::Default()->SetEnabled(true);
  }
  if (options_.tcp_port >= 0) {
    SLICELINE_ASSIGN_OR_RETURN(tcp_listener_,
                               ListenSocket::ListenTcp(options_.tcp_port));
    tcp_port_ = tcp_listener_.bound_port();
    accept_threads_.emplace_back([this] { AcceptLoop(&tcp_listener_); });
  }
  if (!options_.unix_socket.empty()) {
    SLICELINE_ASSIGN_OR_RETURN(unix_listener_,
                               ListenSocket::ListenUnix(options_.unix_socket));
    accept_threads_.emplace_back([this] { AcceptLoop(&unix_listener_); });
  }
  start_seconds_ = NowSeconds();
  started_ = true;
  std::ostringstream endpoints;
  if (tcp_port_ >= 0) endpoints << " on 127.0.0.1:" << tcp_port_;
  if (!options_.unix_socket.empty()) endpoints << " on " << options_.unix_socket;
  LOG_INFO << "serve: listening" << endpoints.str();
  return Status::OK();
}

int Server::Wait() {
  for (std::thread& thread : accept_threads_) thread.join();
  accept_threads_.clear();
  // Listeners are closed before the connection drain so new connect()
  // attempts fail fast instead of queueing behind the drain.
  tcp_listener_.Close();
  unix_listener_.Close();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (std::thread& thread : connection_threads_) thread.join();
    connection_threads_.clear();
  }
  // Wait:false jobs may still be queued or running with no connection
  // attached; the drain promise covers them too.
  scheduler_->DrainAndStop();
  if (!options_.trace_out.empty()) {
    std::ofstream out(options_.trace_out);
    if (out) {
      obs::TraceRecorder::Default()->ExportChromeTrace(out);
    } else {
      LOG_WARNING << "serve: cannot write trace to " << options_.trace_out;
    }
  }
  waited_ = true;
  LOG_INFO << "serve: drained, exiting";
  return 0;
}

void Server::AcceptLoop(ListenSocket* listener) {
  while (!ShutdownRequested()) {
    StatusOr<SocketConnection> accepted = listener->Accept(kPollMillis);
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kNotFound) continue;
      if (!ShutdownRequested()) {
        LOG_WARNING << "serve: accept failed: " << accepted.status().message();
      }
      return;
    }
    CountRequest("serve/connections_total");
    if (open_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      CountRequest("serve/connections_rejected");
      SocketConnection rejected = std::move(accepted).value();
      (void)rejected.WriteLine(
          MakeErrorLine("",
                        Status::ResourceExhausted("too many open connections")),
          kMaxLineBytes);
      continue;  // closed by destructor
    }
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::Default()
        ->GetGauge("serve/open_connections")
        ->Set(open_connections_.load(std::memory_order_relaxed));
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connection_threads_.emplace_back(
        [this, connection = std::move(accepted).value()]() mutable {
          HandleConnection(std::move(connection));
          open_connections_.fetch_sub(1, std::memory_order_relaxed);
          obs::MetricsRegistry::Default()
              ->GetGauge("serve/open_connections")
              ->Set(open_connections_.load(std::memory_order_relaxed));
        });
  }
}

void Server::HandleConnection(SocketConnection connection) {
  // The loop polls between requests so an idle connection notices shutdown
  // within kPollMillis; a request already being served always completes.
  while (!ShutdownRequested()) {
    StatusOr<bool> readable = connection.WaitReadable(kPollMillis);
    if (!readable.ok()) return;
    if (!readable.value()) continue;
    StatusOr<std::string> line = connection.ReadLine(kMaxLineBytes);
    if (!line.ok()) {
      if (line.status().code() == StatusCode::kResourceExhausted) {
        // Overlong line: the stream is desynchronized; report and drop.
        (void)connection.WriteLine(MakeErrorLine("", line.status()),
                                   kMaxLineBytes);
      }
      return;
    }
    if (line.value().empty()) continue;
    if (line.value().rfind("GET ", 0) == 0) {
      HandleHttp(&connection, line.value());
      return;
    }
    const std::string response = HandleRequestLine(line.value());
    Status write_status = connection.WriteLine(response, kMaxLineBytes);
    if (write_status.code() == StatusCode::kResourceExhausted) {
      // The response tripped the framing guard before a single byte went
      // out: the stream is still synchronized, so substitute a structured
      // error the client can parse instead of going silent.
      write_status =
          connection.WriteLine(MakeErrorLine("", write_status), kMaxLineBytes);
    }
    if (!write_status.ok()) return;
  }
}

std::string Server::HandleRequestLine(const std::string& line) {
  TRACE_SPAN("serve/request");
  const double start = NowSeconds();
  CountRequest("serve/requests_total");
  std::string response;
  StatusOr<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    CountRequest("serve/requests_malformed");
    response = MakeErrorLine("", parsed.status());
  } else {
    const Request& request = parsed.value();
    switch (request.type) {
      case RequestType::kRegisterDataset:
        response = HandleRegisterDataset(request);
        break;
      case RequestType::kFindSlices:
        response = HandleFindSlices(request);
        break;
      case RequestType::kGetStatus:
        response = request.dataset.empty() ? HandleGetStatus(request)
                                           : HandleWatchStatus(request);
        break;
      case RequestType::kCancel:
        response = HandleCancel(request);
        break;
      case RequestType::kListDatasets:
        response = HandleListDatasets(request);
        break;
      case RequestType::kServerStats:
        response = HandleServerStats(request);
        break;
      case RequestType::kGetReport:
        response = HandleGetReport(request);
        break;
      case RequestType::kGetTrace:
        response = HandleGetTrace(request);
        break;
      case RequestType::kAppendRows:
        response = HandleAppendRows(request);
        break;
      case RequestType::kWatchDataset:
        response = HandleWatch(request);
        break;
      case RequestType::kUnwatchDataset:
        response = HandleUnwatch(request);
        break;
      case RequestType::kUnregisterDataset:
        response = HandleUnregisterDataset(request);
        break;
    }
  }
  RequestSecondsHistogram()->Observe(NowSeconds() - start);
  return response;
}

std::string Server::HandleRegisterDataset(const Request& request) {
  StatusOr<DatasetRegistry::RegisterOutcome> outcome =
      registry_.Register(request.register_dataset);
  if (!outcome.ok()) return MakeErrorLine(request.id, outcome.status());
  const RegisteredDataset& dataset = *outcome.value().dataset;
  return OkLine(request.id, [&](obs::JsonWriter* writer) {
    writer->Key("type");
    writer->String("register_dataset");
    writer->Key("name");
    writer->String(dataset.name);
    writer->Key("n");
    writer->Int(dataset.dataset.n());
    writer->Key("m");
    writer->Int(dataset.dataset.m());
    writer->Key("one_hot_width");
    writer->Int(dataset.dataset.OneHotWidth());
    writer->Key("mean_error");
    writer->Double(dataset.mean_error);
    // As a string: JSON numbers are doubles on the wire and 64-bit hashes do
    // not survive the round-trip.
    writer->Key("data_hash");
    writer->String(std::to_string(dataset.data_hash));
    writer->Key("already_registered");
    writer->Bool(outcome.value().already_registered);
  });
}

std::string Server::HandleFindSlices(const Request& request) {
  const FindSlicesRequest& find = request.find_slices;
  if (find.engine != "native" && find.engine != "la" &&
      find.engine != "remote") {
    return MakeErrorLine(
        request.id,
        Status::InvalidArgument(
            "engine must be 'native', 'la', or 'remote', got '" +
            find.engine + "'"));
  }
  if (find.engine == "remote" && !options_.remote_engine) {
    return MakeErrorLine(
        request.id,
        Status::InvalidArgument(
            "engine 'remote' requires the server to be started with worker "
            "endpoints"));
  }
  if (Status checked = CheckSearchParams(find.k, find.alpha, find.sigma,
                                         find.max_level);
      !checked.ok()) {
    return MakeErrorLine(request.id, checked);
  }
  if (find.deadline_ms < 0 || find.memory_budget_mb < 0) {
    return MakeErrorLine(
        request.id,
        Status::InvalidArgument("deadline_ms, memory_budget_mb must be >= 0"));
  }
  std::shared_ptr<const RegisteredDataset> dataset =
      registry_.Find(find.dataset);
  if (dataset == nullptr) {
    return MakeErrorLine(request.id, Status::NotFound("unknown dataset '" +
                                                      find.dataset + "'"));
  }

  core::SliceLineConfig config;
  config.k = static_cast<int>(find.k);
  config.alpha = find.alpha;
  config.min_support = find.sigma;
  config.max_level = static_cast<int>(find.max_level);

  // Cache key: dataset content x the parameters the result depends on
  // (resolved sigma canonicalizes "sigma 0" vs "sigma it resolves to").
  const int64_t resolved_sigma =
      core::ResolveMinSupport(config, dataset->dataset.n());
  const uint64_t config_hash =
      core::HashConfigForCheckpoint(config, resolved_sigma, find.engine);

  if (find.wait) {
    if (std::shared_ptr<const CachedResult> cached =
            cache_.Lookup(dataset->data_hash, config_hash)) {
      return MakeResultResponse(request.id, /*job_id=*/-1, /*cache_hit=*/true,
                                cached->result, cached->feature_names);
    }
  }

  JobSpec spec;
  spec.dataset = dataset;
  spec.engine = find.engine;
  spec.config = config;
  spec.deadline_seconds = find.deadline_ms > 0
                              ? static_cast<double>(find.deadline_ms) / 1e3
                              : options_.default_deadline_seconds;
  spec.memory_budget_bytes =
      find.memory_budget_mb > 0 ? find.memory_budget_mb * (1 << 20) : 0;

  StatusOr<std::shared_ptr<Job>> submitted = scheduler_->Submit(std::move(spec));
  if (!submitted.ok()) return MakeErrorLine(request.id, submitted.status());
  const std::shared_ptr<Job>& job = submitted.value();

  if (!find.wait) {
    return OkLine(request.id, [&](obs::JsonWriter* writer) {
      writer->Key("type");
      writer->String("find_slices");
      writer->Key("job");
      writer->Int(job->id);
      writer->Key("state");
      writer->String(JobStateName(job->CurrentState()));
    });
  }

  job->WaitDone();
  std::lock_guard<std::mutex> lock(job->mutex);
  if (job->state == JobState::kFailed) {
    return MakeErrorLine(request.id, job->error);
  }
  if (job->state == JobState::kCancelled) {
    return MakeErrorLine(request.id,
                         Status::Cancelled("job cancelled while queued"));
  }
  if (job->result.outcome.termination ==
      RunOutcome::Termination::kCompleted) {
    auto cached = std::make_shared<CachedResult>();
    cached->result = job->result;
    cached->feature_names = dataset->dataset.feature_names;
    cache_.Insert(dataset->data_hash, config_hash, std::move(cached));
  }
  return MakeResultResponse(request.id, job->id, /*cache_hit=*/false,
                            job->result, dataset->dataset.feature_names);
}

std::string Server::HandleGetStatus(const Request& request) {
  std::shared_ptr<Job> job = scheduler_->Find(request.job_id);
  if (job == nullptr) {
    return MakeErrorLine(request.id, Status::NotFound(
                                         "unknown job " +
                                         std::to_string(request.job_id)));
  }
  std::lock_guard<std::mutex> lock(job->mutex);
  return OkLine(request.id, [&](obs::JsonWriter* writer) {
    writer->Key("type");
    writer->String("get_status");
    writer->Key("job");
    writer->Int(job->id);
    writer->Key("state");
    writer->String(JobStateName(job->state));
    writer->Key("queued_seconds");
    writer->Double(job->queued_seconds);
    writer->Key("run_seconds");
    writer->Double(job->run_seconds);
    if (job->state == JobState::kDone) {
      writer->Key("result");
      WriteResultJson(writer, job->result, job->feature_names);
    } else if (job->state == JobState::kFailed) {
      writer->Key("error");
      writer->BeginObject();
      writer->Key("code");
      writer->String(ErrorCodeForStatus(job->error));
      writer->Key("message");
      writer->String(job->error.message());
      writer->EndObject();
    }
  });
}

std::string Server::HandleCancel(const Request& request) {
  StatusOr<JobState> state = scheduler_->Cancel(request.job_id);
  if (!state.ok()) return MakeErrorLine(request.id, state.status());
  return OkLine(request.id, [&](obs::JsonWriter* writer) {
    writer->Key("type");
    writer->String("cancel");
    writer->Key("job");
    writer->Int(request.job_id);
    writer->Key("state");
    writer->String(JobStateName(state.value()));
  });
}

std::string Server::HandleListDatasets(const Request& request) {
  return OkLine(request.id, [&](obs::JsonWriter* writer) {
    writer->Key("type");
    writer->String("list_datasets");
    writer->Key("datasets");
    writer->BeginArray();
    for (const std::shared_ptr<const RegisteredDataset>& dataset :
         registry_.List()) {
      writer->BeginObject();
      writer->Key("name");
      writer->String(dataset->name);
      writer->Key("n");
      writer->Int(dataset->dataset.n());
      writer->Key("m");
      writer->Int(dataset->dataset.m());
      writer->Key("one_hot_width");
      writer->Int(dataset->dataset.OneHotWidth());
      writer->Key("mean_error");
      writer->Double(dataset->mean_error);
      writer->Key("data_hash");
      writer->String(std::to_string(dataset->data_hash));
      writer->EndObject();
    }
    writer->EndArray();
  });
}

std::string Server::HandleServerStats(const Request& request) {
  // Flush the server trace on stats requests too (not only at shutdown):
  // an operator polling server_stats gets an up-to-date trace file without
  // bouncing the daemon. ExportChromeTrace copies, so nothing is lost.
  if (!options_.trace_out.empty()) {
    std::ofstream trace_file(options_.trace_out);
    if (trace_file) {
      obs::TraceRecorder::Default()->ExportChromeTrace(trace_file);
    } else {
      LOG_WARNING << "serve: cannot write trace to " << options_.trace_out;
    }
  }
  return OkLine(request.id, [&](obs::JsonWriter* writer) {
    writer->Key("type");
    writer->String("server_stats");
    writer->Key("protocol_version");
    writer->Int(kProtocolVersion);
    writer->Key("uptime_seconds");
    writer->Double(NowSeconds() - start_seconds_);
    writer->Key("workers");
    writer->Int(options_.workers);
    writer->Key("max_queue");
    writer->Int(options_.max_queue);
    writer->Key("queue_depth");
    writer->Int(scheduler_->queue_depth());
    writer->Key("running");
    writer->Int(scheduler_->running());
    writer->Key("draining");
    writer->Bool(ShutdownRequested());
    writer->Key("jobs");
    writer->BeginObject();
    writer->Key("admitted");
    writer->Int(scheduler_->jobs_admitted());
    writer->Key("rejected");
    writer->Int(scheduler_->jobs_rejected());
    writer->Key("completed");
    writer->Int(scheduler_->jobs_completed());
    writer->Key("failed");
    writer->Int(scheduler_->jobs_failed());
    writer->Key("cancelled");
    writer->Int(scheduler_->jobs_cancelled());
    writer->EndObject();
    writer->Key("cache");
    writer->BeginObject();
    writer->Key("size");
    writer->Int(static_cast<int64_t>(cache_.size()));
    writer->Key("hits");
    writer->Int(cache_.hits());
    writer->Key("misses");
    writer->Int(cache_.misses());
    writer->Key("evictions");
    writer->Int(cache_.evictions());
    writer->Key("invalidations");
    writer->Int(cache_.invalidations());
    writer->EndObject();
    writer->Key("datasets");
    writer->Int(registry_.size());
    {
      std::lock_guard<std::mutex> lock(stream_mutex_);
      writer->Key("stream");
      writer->BeginObject();
      writer->Key("watches");
      writer->Int(static_cast<int64_t>(watches_.size()));
      writer->Key("appends_total");
      writer->Int(appends_total_);
      writer->Key("alerts_total");
      writer->Int(alerts_total_);
      writer->Key("recent_alerts");
      writer->BeginArray();
      for (const stream::StreamAlert& alert : recent_alerts_) {
        WriteAlertJson(writer, alert);
      }
      writer->EndArray();
      writer->EndObject();
    }
    const MemoryBudget* budget = scheduler_->shared_budget();
    writer->Key("memory");
    writer->BeginObject();
    writer->Key("used_bytes");
    writer->Int(budget->used_bytes());
    writer->Key("peak_bytes");
    writer->Int(budget->peak_bytes());
    writer->Key("limit_bytes");
    writer->Int(budget->limit_bytes());
    writer->EndObject();
  });
}

std::string Server::HandleJobDocument(const Request& request,
                                      const char* type_name,
                                      const char* field,
                                      std::string Job::*document) {
  std::shared_ptr<Job> job = scheduler_->Find(request.job_id);
  if (job == nullptr) {
    return MakeErrorLine(request.id,
                         Status::NotFound("unknown job " +
                                          std::to_string(request.job_id)));
  }
  std::lock_guard<std::mutex> lock(job->mutex);
  const std::string& payload = (*job).*document;
  if (payload.empty()) {
    return MakeErrorLine(
        request.id,
        Status::InvalidArgument("job " + std::to_string(job->id) + " has no " +
                                std::string(field) + " (state=" +
                                JobStateName(job->state) + ")"));
  }
  return OkLine(request.id, [&](obs::JsonWriter* writer) {
    writer->Key("type");
    writer->String(type_name);
    writer->Key("job");
    writer->Int(job->id);
    writer->Key("trace_id");
    writer->String(std::to_string(job->trace_id));
    // Carried as a string holding the document's exact bytes: re-encoding
    // the parsed tree would push 64-bit ids through doubles, and clients
    // want to dump the document verbatim anyway.
    writer->Key(field);
    writer->String(payload);
  });
}

std::string Server::HandleGetReport(const Request& request) {
  return HandleJobDocument(request, "get_report", "report",
                           &Job::report_json);
}

std::string Server::HandleGetTrace(const Request& request) {
  return HandleJobDocument(request, "get_trace", "trace", &Job::trace_json);
}

std::string Server::HandleAppendRows(const Request& request) {
  TRACE_SPAN("serve/append_rows");
  const AppendRowsRequest& append = request.append_rows;
  if (append.chunks < 1) {
    return MakeErrorLine(request.id,
                         Status::InvalidArgument("chunks must be >= 1"));
  }
  if (append.chunk < 0 || append.chunk >= append.chunks) {
    return MakeErrorLine(
        request.id,
        Status::InvalidArgument("chunk must be in [0, chunks)"));
  }
  if (append.errors.size() != append.rows.size()) {
    return MakeErrorLine(
        request.id,
        Status::InvalidArgument("append needs one error per row"));
  }

  // The whole streaming surface serializes here: buffer the chunk, apply
  // the transfer, invalidate the cache, and run the watch evaluation before
  // returning. A drain (SIGTERM) waits for in-flight requests, so an
  // accepted append is always fully applied and its alert recorded.
  std::lock_guard<std::mutex> lock(stream_mutex_);
  const std::string transfer_key = append.dataset + '\0' + append.xfer;
  std::vector<std::vector<std::string>> rows;
  std::vector<double> errors;
  if (append.chunks == 1) {
    rows = append.rows;
    errors = append.errors;
  } else {
    if (append.chunk == 0) pending_appends_.erase(transfer_key);
    PendingAppend& pending = pending_appends_[transfer_key];
    if (append.chunk == 0) pending.chunks = append.chunks;
    if (append.chunk != pending.received ||
        append.chunks != pending.chunks) {
      pending_appends_.erase(transfer_key);
      return MakeErrorLine(
          request.id,
          Status::InvalidArgument(
              "append chunk out of order; transfer voided"));
    }
    pending.rows.insert(pending.rows.end(), append.rows.begin(),
                        append.rows.end());
    pending.errors.insert(pending.errors.end(), append.errors.begin(),
                          append.errors.end());
    ++pending.received;
    if (pending.received < pending.chunks) {
      return OkLine(request.id, [&](obs::JsonWriter* writer) {
        writer->Key("type");
        writer->String("append_rows");
        writer->Key("dataset");
        writer->String(append.dataset);
        writer->Key("chunk");
        writer->Int(append.chunk);
        writer->Key("buffered_rows");
        writer->Int(static_cast<int64_t>(pending.rows.size()));
      });
    }
    rows = std::move(pending.rows);
    errors = std::move(pending.errors);
    pending_appends_.erase(transfer_key);
  }

  StatusOr<DatasetRegistry::AppendOutcome> outcome =
      registry_.AppendRows(append.dataset, rows, errors);
  if (!outcome.ok()) return MakeErrorLine(request.id, outcome.status());
  const int64_t invalidated =
      cache_.InvalidateDataset(outcome.value().previous_hash);
  ++appends_total_;
  CountRequest("stream/appends_total");

  std::optional<stream::StreamAlert> alert;
  const auto watch_it = watches_.find(append.dataset);
  if (watch_it != watches_.end()) {
    StatusOr<std::optional<stream::StreamAlert>> fired =
        watch_it->second->OnAppend(outcome.value().delta_x0,
                                   outcome.value().delta_errors);
    if (!fired.ok()) return MakeErrorLine(request.id, fired.status());
    alert = std::move(fired).value();
    if (alert.has_value()) {
      alert->fingerprint = outcome.value().dataset->data_hash;
      ++alerts_total_;
      CountRequest("stream/alerts_total");
      recent_alerts_.push_front(*alert);
      while (recent_alerts_.size() > kMaxRecentAlerts) {
        recent_alerts_.pop_back();
      }
      LOG_INFO << "serve: stream alert on '" << alert->dataset
               << "': " << alert->slice_display << " score=" << alert->score;
    }
  }

  const RegisteredDataset& dataset = *outcome.value().dataset;
  return OkLine(request.id, [&](obs::JsonWriter* writer) {
    writer->Key("type");
    writer->String("append_rows");
    writer->Key("dataset");
    writer->String(dataset.name);
    writer->Key("rows_appended");
    writer->Int(static_cast<int64_t>(rows.size()));
    writer->Key("n");
    writer->Int(dataset.dataset.n());
    writer->Key("version");
    writer->Int(dataset.version);
    writer->Key("data_hash");
    writer->String(std::to_string(dataset.data_hash));
    writer->Key("cache_invalidated");
    writer->Int(invalidated);
    if (alert.has_value()) {
      writer->Key("alert");
      WriteAlertJson(writer, *alert);
    }
  });
}

std::string Server::HandleWatch(const Request& request) {
  const WatchRequest& watch = request.watch;
  if (Status checked = CheckSearchParams(watch.k, watch.alpha, watch.sigma,
                                         watch.max_level);
      !checked.ok()) {
    return MakeErrorLine(request.id, checked);
  }
  // The snapshot is taken under the lock every append holds, so no append
  // can land between it and the watcher's publication and be missed.
  std::lock_guard<std::mutex> lock(stream_mutex_);
  std::shared_ptr<const RegisteredDataset> dataset =
      registry_.Find(watch.dataset);
  if (dataset == nullptr) {
    return MakeErrorLine(request.id, Status::NotFound("unknown dataset '" +
                                                      watch.dataset + "'"));
  }

  stream::WatchOptions options;
  options.tau = watch.tau;
  options.hysteresis = watch.hysteresis;
  options.window_rows = watch.window_rows;
  options.window_seconds = watch.window_seconds;
  options.config.k = static_cast<int>(watch.k);
  options.config.alpha = watch.alpha;
  options.config.min_support = watch.sigma;
  options.config.max_level = static_cast<int>(watch.max_level);
  // Frozen encoder domains keep the one-hot layout stable across appends
  // and window rebuilds; a dataset registered without encoders (in-process
  // test fixtures) falls back to its observed column maxima.
  options.stream.domains = dataset->encoders != nullptr
                               ? dataset->encoders->Domains()
                               : dataset->dataset.x0.ColMaxs();

  StatusOr<std::unique_ptr<stream::SliceWatcher>> watcher =
      stream::SliceWatcher::Create(
          dataset->name, dataset->dataset.x0, dataset->dataset.errors,
          dataset->dataset.feature_names, std::move(options), options_.clock);
  if (!watcher.ok()) return MakeErrorLine(request.id, watcher.status());

  const bool replaced = watches_.count(watch.dataset) > 0;
  watches_[watch.dataset] = std::move(watcher).value();

  return OkLine(request.id, [&](obs::JsonWriter* writer) {
    writer->Key("type");
    writer->String("watch");
    writer->Key("dataset");
    writer->String(watch.dataset);
    writer->Key("replaced");
    writer->Bool(replaced);
    writer->Key("window_rows");
    writer->Int(watches_[watch.dataset]->window_rows());
  });
}

std::string Server::HandleUnwatch(const Request& request) {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  const bool existed = watches_.erase(request.dataset) > 0;
  return OkLine(request.id, [&](obs::JsonWriter* writer) {
    writer->Key("type");
    writer->String("unwatch");
    writer->Key("dataset");
    writer->String(request.dataset);
    writer->Key("existed");
    writer->Bool(existed);
  });
}

std::string Server::HandleUnregisterDataset(const Request& request) {
  std::shared_ptr<const RegisteredDataset> dataset =
      registry_.Find(request.dataset);
  if (dataset == nullptr) {
    return MakeErrorLine(request.id, Status::NotFound("unknown dataset '" +
                                                      request.dataset + "'"));
  }
  if (scheduler_->HasActiveJobsForDataset(request.dataset)) {
    return MakeErrorLine(
        request.id,
        Status::InvalidArgument("dataset '" + request.dataset +
                                "' has active jobs; wait or cancel first"));
  }
  int64_t invalidated = 0;
  {
    std::lock_guard<std::mutex> lock(stream_mutex_);
    if (watches_.count(request.dataset) > 0) {
      return MakeErrorLine(
          request.id,
          Status::InvalidArgument("dataset '" + request.dataset +
                                  "' is being watched; unwatch first"));
    }
    // Void any half-received append transfers targeting the dataset.
    const std::string prefix = request.dataset + '\0';
    for (auto it = pending_appends_.begin(); it != pending_appends_.end();) {
      it = it->first.rfind(prefix, 0) == 0 ? pending_appends_.erase(it)
                                           : ++it;
    }
    Status dropped = registry_.Unregister(request.dataset);
    if (!dropped.ok()) return MakeErrorLine(request.id, dropped);
    invalidated = cache_.InvalidateDataset(dataset->data_hash);
  }
  return OkLine(request.id, [&](obs::JsonWriter* writer) {
    writer->Key("type");
    writer->String("unregister_dataset");
    writer->Key("dataset");
    writer->String(request.dataset);
    writer->Key("cache_invalidated");
    writer->Int(invalidated);
  });
}

std::string Server::HandleWatchStatus(const Request& request) {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  const auto it = watches_.find(request.dataset);
  if (it == watches_.end()) {
    return MakeErrorLine(request.id,
                         Status::NotFound("no watch on dataset '" +
                                          request.dataset + "'"));
  }
  const stream::SliceWatcher& watcher = *it->second;
  // Appends hold stream_mutex_ through the registry publish and the watch
  // evaluation, and unregister refuses a watched dataset under it, so the
  // registry's current snapshot exists and is the one watched.
  const uint64_t data_hash = registry_.Find(request.dataset)->data_hash;
  return OkLine(request.id, [&](obs::JsonWriter* writer) {
    writer->Key("type");
    writer->String("get_status");
    writer->Key("dataset");
    writer->String(request.dataset);
    writer->Key("watching");
    writer->Bool(true);
    writer->Key("tau");
    writer->Double(watcher.options().tau);
    writer->Key("hysteresis");
    writer->Double(watcher.options().hysteresis);
    writer->Key("armed");
    writer->Bool(watcher.armed());
    writer->Key("last_score");
    writer->Double(watcher.last_score());
    writer->Key("alerts_fired");
    writer->Int(watcher.alerts_fired());
    writer->Key("evaluations");
    writer->Int(watcher.evaluations());
    writer->Key("window_rows");
    writer->Int(watcher.window_rows());
    writer->Key("window_rebuilds");
    writer->Int(watcher.window_rebuilds());
    writer->Key("total_rows");
    writer->Int(watcher.total_rows());
    writer->Key("fingerprint");
    writer->String(std::to_string(data_hash));
    writer->Key("recent_alerts");
    writer->BeginArray();
    for (const stream::StreamAlert& alert : recent_alerts_) {
      if (alert.dataset == request.dataset) WriteAlertJson(writer, alert);
    }
    writer->EndArray();
  });
}

int64_t Server::watch_count() const {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  return static_cast<int64_t>(watches_.size());
}

int64_t Server::stream_alerts_total() const {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  return alerts_total_;
}

std::string Server::MakeResultResponse(
    const std::string& id, int64_t job_id, bool cache_hit,
    const core::SliceLineResult& result,
    const std::vector<std::string>& feature_names) {
  return OkLine(id, [&](obs::JsonWriter* writer) {
    writer->Key("type");
    writer->String("find_slices");
    if (job_id >= 0) {
      writer->Key("job");
      writer->Int(job_id);
    }
    writer->Key("cache_hit");
    writer->Bool(cache_hit);
    writer->Key("result");
    WriteResultJson(writer, result, feature_names);
  });
}

std::string Server::MetricsText() {
  std::ostringstream os;
  obs::RunReport::WritePrometheus(os);
  return os.str();
}

void Server::HandleHttp(SocketConnection* connection,
                        const std::string& request_line) {
  TRACE_SPAN("serve/http");
  // "GET <path> HTTP/1.x"; the header block is drained so well-behaved
  // clients (curl) do not see a reset while still sending.
  for (;;) {
    StatusOr<std::string> header = connection->ReadLine(kMaxLineBytes);
    if (!header.ok()) break;
    const std::string& value = header.value();
    if (value.empty() || value == "\r") break;
  }
  std::string path = request_line.substr(4);
  const size_t space = path.find(' ');
  if (space != std::string::npos) path.resize(space);

  std::string body;
  std::string status_line;
  std::string content_type = "text/plain; charset=utf-8";
  if (path == "/metrics") {
    status_line = "HTTP/1.0 200 OK";
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = MetricsText();
  } else if (path == "/healthz") {
    // Liveness: the process is up and serving connections.
    status_line = "HTTP/1.0 200 OK";
    body = "ok\n";
  } else if (path == "/readyz") {
    // Readiness: stops advertising once a drain begins so load balancers
    // steer new work away while in-flight jobs finish.
    if (ShutdownRequested()) {
      status_line = "HTTP/1.0 503 Service Unavailable";
      body = "draining\n";
    } else {
      status_line = "HTTP/1.0 200 OK";
      body = "ready\n";
    }
  } else {
    status_line = "HTTP/1.0 404 Not Found";
    body = "only /metrics, /healthz, /readyz are served over HTTP\n";
  }
  std::ostringstream os;
  os << status_line << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n"
     << "\r\n"
     << body;
  (void)connection->WriteAll(os.str());
}

}  // namespace sliceline::serve
