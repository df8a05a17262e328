#ifndef SLICELINE_SERVE_PROTOCOL_H_
#define SLICELINE_SERVE_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/slice.h"
#include "obs/json_parse.h"
#include "obs/json_writer.h"

namespace sliceline::serve {

/// Wire protocol of the slice-finding daemon: one strict-JSON object per
/// LF-terminated line in each direction, over TCP (loopback) or a
/// Unix-domain socket. Requests carry a client-chosen correlation "id" that
/// every response echoes. Responses are either
///   {"id":..., "ok":true, ...payload...}
/// or the structured error shape
///   {"id":..., "ok":false, "error":{"code":"...", "message":"..."}}.
/// Lines are length-guarded (kMaxLineBytes) on both sides; a connection
/// whose peer exceeds the guard is desynchronized and must be dropped.

inline constexpr int kProtocolVersion = 1;

/// Per-line length guard. Large enough for a full find_slices response
/// (top-K with predicates plus the per-level table), small enough to bound
/// per-connection memory.
inline constexpr size_t kMaxLineBytes = 1 << 20;

/// Structured error codes carried in error responses. These mirror the
/// Status codes the handlers produce; admission-control rejections use
/// "resource_exhausted" and a draining server uses "unavailable".
std::string ErrorCodeForStatus(const Status& status);

/// Inverse mapping used by clients to surface server errors as Status.
Status StatusFromError(const std::string& code, const std::string& message);

enum class RequestType {
  kRegisterDataset,
  kFindSlices,
  kGetStatus,
  kCancel,
  kListDatasets,
  kServerStats,
  /// get_report: the finished job's obs::RunReport document. The payload
  /// field "report" carries the exact bytes of the strict-JSON report as a
  /// JSON string (not spliced as an object) so 64-bit ids inside survive
  /// double-typed re-encoding and clients can dump it verbatim.
  kGetReport,
  /// get_trace: the finished job's merged Chrome/Perfetto timeline, carried
  /// the same way ("trace" is a JSON string holding the trace document).
  kGetTrace,
  /// append_rows: stream raw rows (plus their model errors) into a
  /// registered dataset. Rows are recoded against the dictionary frozen at
  /// registration; the dataset hash advances along an FNV fingerprint chain
  /// and cached results for the previous hash are invalidated. Chunked like
  /// the distributed load_shard transfer: chunks 0..chunks-1 under one
  /// transfer id, applied atomically on the last chunk.
  kAppendRows,
  /// watch: attach (or replace) a sliding-window monitor on a dataset.
  /// Every subsequent append re-runs incremental slice finding over the
  /// window and fires an alert once per upward tau-crossing.
  kWatchDataset,
  /// unwatch: detach a dataset's monitor.
  kUnwatchDataset,
  /// unregister_dataset: drop a dataset so a long-lived streaming server
  /// can reclaim memory. Refused while jobs or watches reference it.
  kUnregisterDataset,
};

const char* RequestTypeName(RequestType type);
StatusOr<RequestType> RequestTypeFromName(const std::string& name);

/// register_dataset: load a CSV, preprocess it (recode/bin/drop), train the
/// task's model to materialize errors, and publish it under `name`.
/// Registering the same name with identical content is idempotent;
/// registering different content under an existing name is already_exists.
struct RegisterDatasetRequest {
  std::string name;
  std::string csv_path;  ///< server-side path to the CSV file
  std::string label;
  std::string task = "reg";  ///< "reg" | "class"
  int64_t bins = 10;
  std::vector<std::string> drop;
};

/// find_slices: run the enumeration against a registered dataset. With
/// wait=true (default) the response carries the full result; with
/// wait=false it carries the job id for get_status polling.
struct FindSlicesRequest {
  std::string dataset;
  std::string engine = "native";  ///< "native" | "la"
  int64_t k = 4;
  double alpha = 0.95;
  int64_t sigma = 0;      ///< 0 = paper default max(32, ceil(n/100))
  int64_t max_level = 0;  ///< 0 = unbounded
  int64_t deadline_ms = 0;        ///< 0 = none; measured from execution start
  int64_t memory_budget_mb = 0;   ///< 0 = server-wide budget
  bool wait = true;
};

/// append_rows: one chunk of a streaming append. Each row carries one raw
/// string cell per feature (encoder order, the feature_names order minus
/// dropped/label columns) plus its model error -- the caller's model scores
/// new rows, the server recodes them against the frozen dictionary. The
/// whole transfer is applied atomically when the final chunk arrives; a
/// chunk arriving out of order voids the transfer.
struct AppendRowsRequest {
  std::string dataset;
  std::string xfer;    ///< transfer id correlating chunks ("" fine for 1 chunk)
  int64_t chunk = 0;   ///< 0-based index of this chunk
  int64_t chunks = 1;  ///< total chunks in the transfer
  std::vector<std::vector<std::string>> rows;  ///< raw cells, encoder order
  std::vector<double> errors;                  ///< per-row model errors
};

/// watch: sliding-window monitoring parameters for one dataset. The slice
/// config mirrors find_slices; window_rows/window_seconds bound the
/// evaluated window (0 = unbounded) and hysteresis debounces re-arming.
struct WatchRequest {
  std::string dataset;
  double tau = 1.0;
  double hysteresis = 0.0;
  int64_t window_rows = 0;
  double window_seconds = 0.0;
  int64_t k = 4;
  double alpha = 0.95;
  int64_t sigma = 0;      ///< 0 = paper default max(32, ceil(n/100))
  int64_t max_level = 0;  ///< 0 = unbounded
};

/// One parsed request line. `type` selects which payload fields are
/// meaningful; unknown JSON fields are ignored for forward compatibility.
struct Request {
  RequestType type = RequestType::kServerStats;
  std::string id;  ///< correlation id echoed in the response ("" allowed)
  RegisterDatasetRequest register_dataset;
  FindSlicesRequest find_slices;
  AppendRowsRequest append_rows;
  WatchRequest watch;
  int64_t job_id = -1;  ///< get_status / cancel / get_report / get_trace
  /// unwatch / unregister_dataset target; also selects the watch-status
  /// form of get_status (dataset instead of job).
  std::string dataset;
};

/// One request line of either protocol, parsed once (strict JSON); a line
/// that does not parse or is not an object is an InvalidArgument.
StatusOr<obs::JsonValue> ParseRequestObject(const std::string& line);

/// Parses and decodes one request line.
StatusOr<Request> ParseRequest(const std::string& line);

/// Encodes `request` as one LF-terminated line (client side).
std::string SerializeRequest(const Request& request);

// -- response helpers (server side) -----------------------------------------

/// `{"id":..., "ok":false, "error":{"code":..., "message":...}}\n`.
std::string MakeErrorLine(const std::string& id, const Status& status);

/// `{"id":..., "ok":true, ...}\n`: a success response whose payload keys
/// `payload` writes. Every success reply of both protocols is built here.
std::string OkLine(const std::string& id,
                   const std::function<void(obs::JsonWriter*)>& payload);

/// Serializes a full SliceLineResult (top-K with predicates rendered
/// against `feature_names`, per-level table, totals, outcome) under the
/// current writer position as one object value. Doubles go through the
/// %.17g writer, so a client that re-parses them recovers bit-identical
/// values and can reproduce core::FormatResult output exactly.
void WriteResultJson(obs::JsonWriter* writer,
                     const core::SliceLineResult& result,
                     const std::vector<std::string>& feature_names);

/// Inverse of WriteResultJson: rebuilds the result (and feature names) from
/// a response's "result" object.
StatusOr<core::SliceLineResult> ParseResultJson(
    const obs::JsonValue& value, std::vector<std::string>* feature_names);

}  // namespace sliceline::serve

#endif  // SLICELINE_SERVE_PROTOCOL_H_
