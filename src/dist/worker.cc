#include "dist/worker.h"

#include <unistd.h>

#include <atomic>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "dist/fault_injection.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_merge.h"
#include "serve/protocol.h"

namespace sliceline::dist {

namespace {

/// Process-global instance counter: a Worker restarted in-process (tests)
/// must present a fresh session just like a restarted OS process would.
std::atomic<int64_t> g_worker_instances{0};

}  // namespace

WorkerHandler::WorkerHandler()
    : session_("w" + std::to_string(getpid()) + "-" +
               std::to_string(g_worker_instances.fetch_add(1))) {}

std::string WorkerHandler::HandleLine(const std::string& line,
                                      bool* shutdown) {
  last_compute_seconds_ = 0.0;
  StatusOr<serve::WorkerRequest> request = serve::ParseWorkerRequest(line);
  if (!request.ok()) return serve::MakeErrorLine("", request.status());
  if (shutdown != nullptr) {
    *shutdown = request->type == serve::WorkerRequestType::kShutdown;
  }
  return Handle(request.value());
}

Worker::Worker(const WorkerOptions& options) : options_(options) {}

Worker::~Worker() {
  RequestShutdown();
  Wait();
}

Status Worker::Start() {
  if (!options_.unix_socket.empty()) {
    SLICELINE_ASSIGN_OR_RETURN(listener_,
                               ListenSocket::ListenUnix(options_.unix_socket));
  } else {
    SLICELINE_ASSIGN_OR_RETURN(listener_,
                               ListenSocket::ListenTcp(options_.tcp_port));
    tcp_port_ = listener_.bound_port();
  }
  thread_ = std::thread(&Worker::Serve, this);
  return Status::OK();
}

void Worker::Wait() {
  if (thread_.joinable()) thread_.join();
}

void Worker::Serve() {
  while (!shutdown_.load()) {
    StatusOr<SocketConnection> conn = listener_.Accept(100);
    if (!conn.ok()) continue;  // accept timeout or transient error
    ServeConnection(std::move(conn).value());
  }
  listener_.Close();
}

void Worker::ServeConnection(SocketConnection conn) {
  while (!shutdown_.load()) {
    StatusOr<bool> readable = conn.WaitReadable(100);
    if (!readable.ok()) return;
    if (!readable.value()) continue;

    StatusOr<std::string> line =
        conn.ReadLine(serve::kWorkerMaxLineBytes);
    if (!line.ok()) {
      // Oversized line: the stream is desynchronized -- answer with a
      // structured error, then drop the connection. EOF / I/O error: just
      // drop; the coordinator reconnects.
      if (line.status().code() == StatusCode::kResourceExhausted) {
        (void)conn.WriteLine(serve::MakeErrorLine("", line.status()),
                             serve::kWorkerMaxLineBytes);
      }
      return;
    }

    ++requests_seen_;
    if (options_.drop_every > 0 &&
        requests_seen_ % options_.drop_every == 0) {
      // Injected transient failure: vanish mid-protocol without a response.
      return;
    }

    bool stop_after_reply = false;
    const std::string response =
        handler_.HandleLine(line.value(), &stop_after_reply);
    if (!conn.WriteLine(response, serve::kWorkerMaxLineBytes).ok()) return;
    if (stop_after_reply) {
      shutdown_.store(true);
      return;
    }
  }
}

std::string WorkerHandler::Handle(const serve::WorkerRequest& request) {
  // A coordinator that sends a trace id has fleet tracing on: start
  // recording (idempotent) and stamp everything this request records so
  // get_spans can ship it back attributed to the right job.
  if (request.trace_id != 0 && !obs::TraceRecorder::Default()->enabled()) {
    obs::TraceRecorder::Default()->SetProcessLabel("worker " + session_);
    obs::TraceRecorder::Default()->SetEnabled(true);
    // Counter deltas ship alongside the spans; without this the work
    // accounting (worker/eval_blocks, worker/eval_slices) stays zero.
    obs::SetMetricsEnabled(true);
  }
  obs::ScopedTraceContext trace_context(
      obs::TraceContext{request.trace_id, request.parent_span_id});
  StatusOr<std::string> response = Status::Internal("unhandled request");
  switch (request.type) {
    case serve::WorkerRequestType::kEnlist:
      response = HandleEnlist(request);
      break;
    case serve::WorkerRequestType::kHasShard:
      response = serve::OkLine(request.id, [&](obs::JsonWriter* writer) {
        writer->Key("loaded");
        writer->Bool(shards_.count({request.dataset_hash, request.shard}) > 0);
      });
      break;
    case serve::WorkerRequestType::kLoadShard:
      response = HandleLoadShard(request);
      break;
    case serve::WorkerRequestType::kBasicStats:
      response = HandleBasicStats(request);
      break;
    case serve::WorkerRequestType::kEvalBlock:
      response = HandleEvalBlock(request);
      break;
    case serve::WorkerRequestType::kGetSpans:
      response = HandleGetSpans(request);
      break;
    case serve::WorkerRequestType::kHeartbeat:
      response = serve::OkLine(request.id, [](obs::JsonWriter* writer) {
        // Steady-clock sample for the coordinator's offset estimation.
        writer->Key("now_us");
        writer->Int(obs::TraceRecorder::NowMicros());
      });
      break;
    case serve::WorkerRequestType::kShutdown:
      response = serve::OkLine(request.id, [](obs::JsonWriter*) {});
      break;
  }
  if (!response.ok()) return serve::MakeErrorLine(request.id, response.status());
  return std::move(response).value();
}

StatusOr<std::string> WorkerHandler::HandleEnlist(
    const serve::WorkerRequest& request) {
  if (request.protocol != serve::kWorkerProtocolVersion) {
    return Status::InvalidArgument(
        "worker protocol mismatch: coordinator speaks " +
        std::to_string(request.protocol) + ", worker speaks " +
        std::to_string(serve::kWorkerProtocolVersion));
  }
  return serve::OkLine(request.id, [&](obs::JsonWriter* writer) {
    writer->Key("protocol");
    writer->Int(serve::kWorkerProtocolVersion);
    writer->Key("session");
    writer->String(session_);
    writer->Key("now_us");
    writer->Int(obs::TraceRecorder::NowMicros());
    writer->Key("pid");
    writer->Int(static_cast<int64_t>(getpid()));
  });
}

StatusOr<std::string> WorkerHandler::HandleLoadShard(
    const serve::WorkerRequest& request) {
  const serve::LoadShardChunk& c = request.chunk;
  const ShardKey key{request.dataset_hash, request.shard};
  if (request.shard < 0) {
    return Status::InvalidArgument("load_shard requires shard >= 0");
  }
  const int64_t shard_rows = c.row_end - c.row_begin;
  if (shard_rows <= 0 || c.cols <= 0 || c.chunks < 1 || c.chunk < 0 ||
      c.chunk >= c.chunks) {
    return Status::InvalidArgument("malformed load_shard geometry");
  }
  if (c.errors.empty() ||
      c.codes.size() != c.errors.size() * static_cast<size_t>(c.cols)) {
    return Status::InvalidArgument(
        "load_shard codes/errors sizes disagree with cols");
  }

  if (c.chunk == 0) {
    // (Re-)starting a transfer invalidates any previous copy of the shard.
    shards_.erase(key);
    if (c.fdom.size() != static_cast<size_t>(c.cols)) {
      return Status::InvalidArgument(
          "load_shard chunk 0 must carry one fdom entry per column");
    }
    ShardStaging staging;
    staging.row_begin = c.row_begin;
    staging.row_end = c.row_end;
    staging.cols = c.cols;
    staging.chunks = c.chunks;
    staging.fdom = c.fdom;
    staging_[key] = std::move(staging);
  }

  auto it = staging_.find(key);
  if (it == staging_.end()) {
    return Status::InvalidArgument(
        "load_shard chunk arrived with no transfer in progress");
  }
  ShardStaging& staging = it->second;
  const int64_t rows_so_far =
      static_cast<int64_t>(staging.errors.size());
  if (c.chunk != staging.next_chunk || c.chunks != staging.chunks ||
      c.row_begin != staging.row_begin || c.row_end != staging.row_end ||
      c.cols != staging.cols ||
      c.chunk_row_begin != staging.row_begin + rows_so_far) {
    staging_.erase(it);
    return Status::InvalidArgument(
        "out-of-order load_shard chunk; restart the transfer");
  }
  staging.codes.insert(staging.codes.end(), c.codes.begin(), c.codes.end());
  staging.errors.insert(staging.errors.end(), c.errors.begin(),
                        c.errors.end());
  ++staging.next_chunk;

  bool loaded = false;
  if (staging.next_chunk == staging.chunks) {
    const int64_t rows = static_cast<int64_t>(staging.errors.size());
    if (rows != shard_rows) {
      staging_.erase(it);
      return Status::InvalidArgument(
          "load_shard transfer ended with " + std::to_string(rows) +
          " rows, expected " + std::to_string(shard_rows));
    }
    // The evaluator's column store treats a bad error as a broken
    // invariant; outside input gets a Status naming the row instead.
    if (Status errors = core::CheckErrors(staging.errors); !errors.ok()) {
      staging_.erase(it);
      return errors;
    }
    auto state = std::make_unique<ShardState>();
    state->x0 = data::IntMatrix(rows, staging.cols);
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t j = 0; j < staging.cols; ++j) {
        const int32_t code = staging.codes[r * staging.cols + j];
        if (code < 1 || code > staging.fdom[j]) {
          staging_.erase(it);
          return Status::InvalidArgument(
              "shard code out of domain at row " + std::to_string(r) +
              ", feature " + std::to_string(j));
        }
        state->x0.At(r, j) = code;
      }
    }
    state->errors = std::move(staging.errors);
    // The coordinator's global column space, not this shard's observed
    // maxima: partials from every shard must align column for column.
    state->offsets = data::OffsetsFromDomains(staging.fdom);
    state->row_begin = staging.row_begin;
    state->row_end = staging.row_end;
    state->evaluator = std::make_unique<core::SliceEvaluator>(
        state->x0, state->offsets, state->errors);
    staging_.erase(it);
    shards_[key] = std::move(state);
    loaded = true;
    LOG_DEBUG << "worker " << session_ << ": loaded shard " << request.shard
              << " (" << rows << " rows) of dataset " << request.dataset_hash;
  }

  return serve::OkLine(request.id, [&](obs::JsonWriter* writer) {
    writer->Key("loaded");
    writer->Bool(loaded);
  });
}

StatusOr<std::string> WorkerHandler::HandleBasicStats(
    const serve::WorkerRequest& request) {
  TRACE_SPAN("worker/basic_stats", request.shard);
  auto it = shards_.find({request.dataset_hash, request.shard});
  if (it == shards_.end()) {
    return Status::NotFound("shard " + std::to_string(request.shard) +
                            " is not loaded in this session");
  }
  const core::SliceEvaluator& evaluator = *it->second->evaluator;
  const data::ColumnStore& store = evaluator.store();
  serve::ShardBasicStats stats;
  stats.n = evaluator.n();
  stats.columns.sizes = evaluator.basic_sizes();
  stats.columns.error_sums = store.exact_basic_error_sums();
  stats.columns.max_errors = evaluator.basic_max_errors();

  return serve::OkLine(request.id, [&](obs::JsonWriter* writer) {
    serve::WriteBasicStatsPayload(writer, stats);
  });
}

StatusOr<std::string> WorkerHandler::HandleEvalBlock(
    const serve::WorkerRequest& request) {
  TRACE_SPAN("worker/eval_block", request.shard);
  auto it = shards_.find({request.dataset_hash, request.shard});
  if (it == shards_.end()) {
    return Status::NotFound("shard " + std::to_string(request.shard) +
                            " is not loaded in this session");
  }
  // Column ids come off the wire (the parser has checked that each slice
  // ascends): one outside the shard's column space would index past its
  // bitmaps.
  const int64_t columns = it->second->offsets.total;
  for (int64_t i = 0; i < request.slices.size(); ++i) {
    const int64_t* ids = request.slices.Columns(i);
    for (int64_t j = 0; j < request.slices.Length(i); ++j) {
      if (ids[j] < 0 || ids[j] >= columns) {
        return Status::InvalidArgument(
            "slice column id " + std::to_string(ids[j]) + " is outside [0, " +
            std::to_string(columns) + ")");
      }
    }
  }
  if (request.block_size < 1 ||
      request.block_size > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("block_size must be in [1, 2^31)");
  }
  core::SliceLineConfig config;
  config.eval_strategy = request.strategy;
  config.eval_block_size = static_cast<int>(request.block_size);
  // One thread per worker: the fleet is the parallelism.
  config.parallel = false;
  Stopwatch watch;
  core::ExactEvalResult partial(static_cast<size_t>(request.slices.size()));
  SLICELINE_RETURN_NOT_OK(it->second->evaluator->Continue(
      request.slices, /*first_row=*/0, config, &partial));
  last_compute_seconds_ = watch.ElapsedSeconds();
  const uint64_t checksum = ChecksumPartial(partial);
  // Per-worker work accounting, shipped back via get_spans; the coordinator
  // cross-checks the fleet-wide sum against its own DistCost.
  obs::MetricsRegistry::Default()->GetCounter("worker/eval_blocks")
      ->Increment();
  obs::MetricsRegistry::Default()->GetCounter("worker/eval_slices")
      ->Add(request.slices.size());

  return serve::OkLine(request.id, [&](obs::JsonWriter* writer) {
    serve::WriteEvalPayload(writer, partial, checksum);
  });
}

StatusOr<std::string> WorkerHandler::HandleGetSpans(
    const serve::WorkerRequest& request) {
  // Drain the recorder (one coordinator per worker, so everything buffered
  // belongs to it) and ship absolute counter values; the coordinator owns
  // the per-session baselines and turns them into deltas.
  std::vector<obs::RemoteSpan> spans;
  for (const obs::TraceEvent& event :
       obs::TraceRecorder::Default()->TakeEvents()) {
    spans.push_back(obs::RemoteSpanFromEvent(event));
  }
  std::vector<std::pair<std::string, double>> counters;
  for (const obs::MetricSample& sample :
       obs::MetricsRegistry::Default()->Snapshot()) {
    if (sample.kind == obs::MetricSample::Kind::kCounter) {
      counters.emplace_back(sample.name,
                            static_cast<double>(sample.counter_value));
    }
  }

  return serve::OkLine(request.id, [&](obs::JsonWriter* writer) {
    writer->Key("now_us");
    writer->Int(obs::TraceRecorder::NowMicros());
    writer->Key("pid");
    writer->Int(static_cast<int64_t>(getpid()));
    writer->Key("session");
    writer->String(session_);
    serve::WriteSpansPayload(writer, spans, counters);
  });
}

}  // namespace sliceline::dist
