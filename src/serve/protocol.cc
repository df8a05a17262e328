#include "serve/protocol.h"

#include <sstream>

namespace sliceline::serve {

namespace {

struct CodeName {
  StatusCode code;
  const char* name;
};

constexpr CodeName kCodeNames[] = {
    {StatusCode::kInvalidArgument, "invalid_argument"},
    {StatusCode::kOutOfRange, "out_of_range"},
    {StatusCode::kNotFound, "not_found"},
    {StatusCode::kIoError, "io_error"},
    {StatusCode::kNotImplemented, "not_implemented"},
    {StatusCode::kInternal, "internal"},
    {StatusCode::kCancelled, "cancelled"},
    {StatusCode::kDeadlineExceeded, "deadline_exceeded"},
    {StatusCode::kResourceExhausted, "resource_exhausted"},
};

const char* TerminationNameOf(RunOutcome::Termination t) {
  return RunOutcome::TerminationName(t);
}

StatusOr<RunOutcome::Termination> TerminationFromName(
    const std::string& name) {
  using T = RunOutcome::Termination;
  for (T t : {T::kCompleted, T::kDegraded, T::kDeadlineExceeded, T::kCancelled,
              T::kBudgetExhausted}) {
    if (name == TerminationNameOf(t)) return t;
  }
  return Status::InvalidArgument("unknown termination '" + name + "'");
}

}  // namespace

std::string ErrorCodeForStatus(const Status& status) {
  for (const CodeName& entry : kCodeNames) {
    if (entry.code == status.code()) return entry.name;
  }
  return "internal";
}

Status StatusFromError(const std::string& code, const std::string& message) {
  for (const CodeName& entry : kCodeNames) {
    if (code == entry.name) return Status(entry.code, message);
  }
  return Status::Internal("(" + code + ") " + message);
}

const char* RequestTypeName(RequestType type) {
  switch (type) {
    case RequestType::kRegisterDataset: return "register_dataset";
    case RequestType::kFindSlices: return "find_slices";
    case RequestType::kGetStatus: return "get_status";
    case RequestType::kCancel: return "cancel";
    case RequestType::kListDatasets: return "list_datasets";
    case RequestType::kServerStats: return "server_stats";
    case RequestType::kGetReport: return "get_report";
    case RequestType::kGetTrace: return "get_trace";
    case RequestType::kAppendRows: return "append_rows";
    case RequestType::kWatchDataset: return "watch";
    case RequestType::kUnwatchDataset: return "unwatch";
    case RequestType::kUnregisterDataset: return "unregister_dataset";
  }
  return "unknown";
}

StatusOr<RequestType> RequestTypeFromName(const std::string& name) {
  for (RequestType t :
       {RequestType::kRegisterDataset, RequestType::kFindSlices,
        RequestType::kGetStatus, RequestType::kCancel,
        RequestType::kListDatasets, RequestType::kServerStats,
        RequestType::kGetReport, RequestType::kGetTrace,
        RequestType::kAppendRows, RequestType::kWatchDataset,
        RequestType::kUnwatchDataset, RequestType::kUnregisterDataset}) {
    if (name == RequestTypeName(t)) return t;
  }
  return Status::InvalidArgument("unknown request type '" + name + "'");
}

StatusOr<obs::JsonValue> ParseRequestObject(const std::string& line) {
  StatusOr<obs::JsonValue> root = obs::ParseJson(line);
  if (!root.ok()) {
    return Status::InvalidArgument("malformed request: " +
                                   root.status().message());
  }
  if (!root->is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  return root;
}

StatusOr<Request> ParseRequest(const std::string& line) {
  SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue root,
                             ParseRequestObject(line));

  Request request;
  std::string type_name;
  SLICELINE_RETURN_NOT_OK(root.Require("type", &type_name));
  SLICELINE_ASSIGN_OR_RETURN(request.type, RequestTypeFromName(type_name));
  SLICELINE_RETURN_NOT_OK(root.Optional("id", &request.id));

  switch (request.type) {
    case RequestType::kRegisterDataset: {
      RegisterDatasetRequest& r = request.register_dataset;
      SLICELINE_RETURN_NOT_OK(root.Require("name", &r.name));
      SLICELINE_RETURN_NOT_OK(root.Require("csv", &r.csv_path));
      SLICELINE_RETURN_NOT_OK(root.Require("label", &r.label));
      SLICELINE_RETURN_NOT_OK(root.Optional("task", &r.task));
      SLICELINE_RETURN_NOT_OK(root.Optional("bins", &r.bins));
      SLICELINE_RETURN_NOT_OK(root.Optional("drop", &r.drop));
      break;
    }
    case RequestType::kFindSlices: {
      FindSlicesRequest& f = request.find_slices;
      SLICELINE_RETURN_NOT_OK(root.Require("dataset", &f.dataset));
      SLICELINE_RETURN_NOT_OK(root.Optional("engine", &f.engine));
      SLICELINE_RETURN_NOT_OK(root.Optional("k", &f.k));
      SLICELINE_RETURN_NOT_OK(root.Optional("alpha", &f.alpha));
      SLICELINE_RETURN_NOT_OK(root.Optional("sigma", &f.sigma));
      SLICELINE_RETURN_NOT_OK(root.Optional("max_level", &f.max_level));
      SLICELINE_RETURN_NOT_OK(root.Optional("deadline_ms", &f.deadline_ms));
      SLICELINE_RETURN_NOT_OK(
          root.Optional("memory_budget_mb", &f.memory_budget_mb));
      SLICELINE_RETURN_NOT_OK(root.Optional("wait", &f.wait));
      break;
    }
    case RequestType::kAppendRows: {
      AppendRowsRequest& a = request.append_rows;
      SLICELINE_RETURN_NOT_OK(root.Require("dataset", &a.dataset));
      SLICELINE_RETURN_NOT_OK(root.Optional("xfer", &a.xfer));
      SLICELINE_RETURN_NOT_OK(root.Optional("chunk", &a.chunk));
      SLICELINE_RETURN_NOT_OK(root.Optional("chunks", &a.chunks));
      SLICELINE_RETURN_NOT_OK(root.Require("rows", &a.rows));
      SLICELINE_RETURN_NOT_OK(root.Require("errors", &a.errors));
      break;
    }
    case RequestType::kWatchDataset: {
      WatchRequest& w = request.watch;
      SLICELINE_RETURN_NOT_OK(root.Require("dataset", &w.dataset));
      SLICELINE_RETURN_NOT_OK(root.Optional("tau", &w.tau));
      SLICELINE_RETURN_NOT_OK(root.Optional("hysteresis", &w.hysteresis));
      SLICELINE_RETURN_NOT_OK(root.Optional("window_rows", &w.window_rows));
      SLICELINE_RETURN_NOT_OK(
          root.Optional("window_seconds", &w.window_seconds));
      SLICELINE_RETURN_NOT_OK(root.Optional("k", &w.k));
      SLICELINE_RETURN_NOT_OK(root.Optional("alpha", &w.alpha));
      SLICELINE_RETURN_NOT_OK(root.Optional("sigma", &w.sigma));
      SLICELINE_RETURN_NOT_OK(root.Optional("max_level", &w.max_level));
      break;
    }
    case RequestType::kUnwatchDataset:
    case RequestType::kUnregisterDataset:
      SLICELINE_RETURN_NOT_OK(root.Require("dataset", &request.dataset));
      break;
    case RequestType::kGetStatus:
      // Two forms: job status ("job") and watch status ("dataset").
      if (root.Find("dataset") != nullptr) {
        SLICELINE_RETURN_NOT_OK(root.Require("dataset", &request.dataset));
      } else {
        SLICELINE_RETURN_NOT_OK(root.Require("job", &request.job_id));
      }
      break;
    case RequestType::kCancel:
    case RequestType::kGetReport:
    case RequestType::kGetTrace:
      SLICELINE_RETURN_NOT_OK(root.Require("job", &request.job_id));
      break;
    case RequestType::kListDatasets:
    case RequestType::kServerStats:
      break;
  }
  return request;
}

std::string SerializeRequest(const Request& request) {
  std::ostringstream os;
  obs::JsonWriter writer(os);
  writer.BeginObject();
  writer.Key("type");
  writer.String(RequestTypeName(request.type));
  if (!request.id.empty()) {
    writer.Key("id");
    writer.String(request.id);
  }
  switch (request.type) {
    case RequestType::kRegisterDataset: {
      const RegisterDatasetRequest& r = request.register_dataset;
      writer.Key("name");
      writer.String(r.name);
      writer.Key("csv");
      writer.String(r.csv_path);
      writer.Key("label");
      writer.String(r.label);
      writer.Key("task");
      writer.String(r.task);
      writer.Key("bins");
      writer.Int(r.bins);
      if (!r.drop.empty()) {
        writer.Key("drop");
        writer.BeginArray();
        for (const std::string& column : r.drop) writer.String(column);
        writer.EndArray();
      }
      break;
    }
    case RequestType::kFindSlices: {
      const FindSlicesRequest& f = request.find_slices;
      writer.Key("dataset");
      writer.String(f.dataset);
      writer.Key("engine");
      writer.String(f.engine);
      writer.Key("k");
      writer.Int(f.k);
      writer.Key("alpha");
      writer.Double(f.alpha);
      writer.Key("sigma");
      writer.Int(f.sigma);
      writer.Key("max_level");
      writer.Int(f.max_level);
      writer.Key("deadline_ms");
      writer.Int(f.deadline_ms);
      writer.Key("memory_budget_mb");
      writer.Int(f.memory_budget_mb);
      writer.Key("wait");
      writer.Bool(f.wait);
      break;
    }
    case RequestType::kAppendRows: {
      const AppendRowsRequest& a = request.append_rows;
      writer.Key("dataset");
      writer.String(a.dataset);
      if (!a.xfer.empty()) {
        writer.Key("xfer");
        writer.String(a.xfer);
      }
      writer.Key("chunk");
      writer.Int(a.chunk);
      writer.Key("chunks");
      writer.Int(a.chunks);
      writer.Key("rows");
      writer.BeginArray();
      for (const std::vector<std::string>& row : a.rows) {
        writer.BeginArray();
        for (const std::string& cell : row) writer.String(cell);
        writer.EndArray();
      }
      writer.EndArray();
      writer.Key("errors");
      writer.BeginArray();
      for (double error : a.errors) writer.Double(error);
      writer.EndArray();
      break;
    }
    case RequestType::kWatchDataset: {
      const WatchRequest& w = request.watch;
      writer.Key("dataset");
      writer.String(w.dataset);
      writer.Key("tau");
      writer.Double(w.tau);
      writer.Key("hysteresis");
      writer.Double(w.hysteresis);
      writer.Key("window_rows");
      writer.Int(w.window_rows);
      writer.Key("window_seconds");
      writer.Double(w.window_seconds);
      writer.Key("k");
      writer.Int(w.k);
      writer.Key("alpha");
      writer.Double(w.alpha);
      writer.Key("sigma");
      writer.Int(w.sigma);
      writer.Key("max_level");
      writer.Int(w.max_level);
      break;
    }
    case RequestType::kUnwatchDataset:
    case RequestType::kUnregisterDataset:
      writer.Key("dataset");
      writer.String(request.dataset);
      break;
    case RequestType::kGetStatus:
      if (!request.dataset.empty()) {
        writer.Key("dataset");
        writer.String(request.dataset);
        break;
      }
      writer.Key("job");
      writer.Int(request.job_id);
      break;
    case RequestType::kCancel:
    case RequestType::kGetReport:
    case RequestType::kGetTrace:
      writer.Key("job");
      writer.Int(request.job_id);
      break;
    case RequestType::kListDatasets:
    case RequestType::kServerStats:
      break;
  }
  writer.EndObject();
  os << '\n';
  return os.str();
}

std::string MakeErrorLine(const std::string& id, const Status& status) {
  std::ostringstream os;
  obs::JsonWriter writer(os);
  writer.BeginObject();
  writer.Key("id");
  writer.String(id);
  writer.Key("ok");
  writer.Bool(false);
  writer.Key("error");
  writer.BeginObject();
  writer.Key("code");
  writer.String(ErrorCodeForStatus(status));
  writer.Key("message");
  writer.String(status.message());
  writer.EndObject();
  writer.EndObject();
  os << '\n';
  return os.str();
}

std::string OkLine(const std::string& id,
                   const std::function<void(obs::JsonWriter*)>& payload) {
  std::ostringstream os;
  obs::JsonWriter writer(os);
  writer.BeginObject();
  writer.Key("id");
  writer.String(id);
  writer.Key("ok");
  writer.Bool(true);
  payload(&writer);
  writer.EndObject();
  os << '\n';
  return os.str();
}

void WriteResultJson(obs::JsonWriter* writer,
                     const core::SliceLineResult& result,
                     const std::vector<std::string>& feature_names) {
  writer->BeginObject();
  writer->Key("min_support");
  writer->Int(result.min_support);
  writer->Key("average_error");
  writer->Double(result.average_error);
  writer->Key("total_seconds");
  writer->Double(result.total_seconds);
  writer->Key("total_evaluated");
  writer->Int(result.total_evaluated);

  writer->Key("feature_names");
  writer->BeginArray();
  for (const std::string& name : feature_names) writer->String(name);
  writer->EndArray();

  writer->Key("top_k");
  writer->BeginArray();
  for (const core::Slice& slice : result.top_k) {
    writer->BeginObject();
    writer->Key("score");
    writer->Double(slice.stats.score);
    writer->Key("error_sum");
    writer->Double(slice.stats.error_sum);
    writer->Key("max_error");
    writer->Double(slice.stats.max_error);
    writer->Key("size");
    writer->Int(slice.stats.size);
    writer->Key("predicates");
    writer->BeginArray();
    for (const auto& [feature, code] : slice.predicates) {
      writer->BeginObject();
      writer->Key("feature");
      writer->Int(feature);
      writer->Key("code");
      writer->Int(code);
      writer->EndObject();
    }
    writer->EndArray();
    writer->EndObject();
  }
  writer->EndArray();

  writer->Key("levels");
  writer->BeginArray();
  for (const core::LevelStats& level : result.levels) {
    writer->BeginObject();
    writer->Key("level");
    writer->Int(level.level);
    writer->Key("candidates");
    writer->Int(level.candidates);
    writer->Key("valid");
    writer->Int(level.valid);
    writer->Key("pruned");
    writer->Int(level.pruned);
    writer->Key("seconds");
    writer->Double(level.seconds);
    writer->EndObject();
  }
  writer->EndArray();

  const RunOutcome& outcome = result.outcome;
  writer->Key("outcome");
  writer->BeginObject();
  writer->Key("termination");
  writer->String(TerminationNameOf(outcome.termination));
  writer->Key("partial");
  writer->Bool(outcome.partial);
  writer->Key("degradation_steps");
  writer->Int(outcome.degradation_steps);
  writer->Key("sigma_raised_to");
  writer->Int(outcome.sigma_raised_to);
  writer->Key("candidates_capped");
  writer->Int(outcome.candidates_capped);
  writer->Key("stopped_at_level");
  writer->Int(outcome.stopped_at_level);
  writer->Key("resumed_from_checkpoint");
  writer->Bool(outcome.resumed_from_checkpoint);
  writer->Key("peak_memory_bytes");
  writer->Int(outcome.peak_memory_bytes);
  writer->Key("dist_fallback_local");
  writer->Bool(outcome.dist_fallback_local);
  writer->Key("stream_candidates_cached");
  writer->Int(outcome.stream_candidates_cached);
  writer->Key("stream_candidates_delta");
  writer->Int(outcome.stream_candidates_delta);
  writer->Key("stream_candidates_full");
  writer->Int(outcome.stream_candidates_full);
  writer->EndObject();

  writer->EndObject();
}

StatusOr<core::SliceLineResult> ParseResultJson(
    const obs::JsonValue& value, std::vector<std::string>* feature_names) {
  if (!value.is_object()) {
    return Status::InvalidArgument("result must be a JSON object");
  }
  core::SliceLineResult result;
  SLICELINE_ASSIGN_OR_RETURN(result.min_support,
                             value.RequireInt("min_support"));
  SLICELINE_ASSIGN_OR_RETURN(result.average_error,
                             value.RequireNumber("average_error"));
  SLICELINE_ASSIGN_OR_RETURN(result.total_seconds,
                             value.RequireNumber("total_seconds"));
  SLICELINE_ASSIGN_OR_RETURN(result.total_evaluated,
                             value.RequireInt("total_evaluated"));

  if (feature_names != nullptr) {
    feature_names->clear();
    SLICELINE_RETURN_NOT_OK(value.Optional("feature_names", feature_names));
  }

  const obs::JsonValue* top_k = value.Find("top_k");
  if (top_k == nullptr || !top_k->is_array()) {
    return Status::InvalidArgument("missing 'top_k' array");
  }
  for (const obs::JsonValue& item : top_k->array_items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("top_k entries must be objects");
    }
    core::Slice slice;
    SLICELINE_ASSIGN_OR_RETURN(slice.stats.score, item.RequireNumber("score"));
    SLICELINE_ASSIGN_OR_RETURN(slice.stats.error_sum,
                               item.RequireNumber("error_sum"));
    SLICELINE_ASSIGN_OR_RETURN(slice.stats.max_error,
                               item.RequireNumber("max_error"));
    SLICELINE_ASSIGN_OR_RETURN(slice.stats.size, item.RequireInt("size"));
    const obs::JsonValue* predicates = item.Find("predicates");
    if (predicates == nullptr || !predicates->is_array()) {
      return Status::InvalidArgument("missing 'predicates' array");
    }
    for (const obs::JsonValue& predicate : predicates->array_items()) {
      if (!predicate.is_object()) {
        return Status::InvalidArgument("predicates must be objects");
      }
      SLICELINE_ASSIGN_OR_RETURN(const int64_t feature,
                                 predicate.RequireInt("feature"));
      SLICELINE_ASSIGN_OR_RETURN(const int64_t code,
                                 predicate.RequireInt("code"));
      slice.predicates.emplace_back(static_cast<int>(feature),
                                    static_cast<int32_t>(code));
    }
    result.top_k.push_back(std::move(slice));
  }

  const obs::JsonValue* levels = value.Find("levels");
  if (levels == nullptr || !levels->is_array()) {
    return Status::InvalidArgument("missing 'levels' array");
  }
  for (const obs::JsonValue& item : levels->array_items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("levels entries must be objects");
    }
    core::LevelStats level;
    SLICELINE_ASSIGN_OR_RETURN(const int64_t level_index,
                               item.RequireInt("level"));
    level.level = static_cast<int>(level_index);
    SLICELINE_ASSIGN_OR_RETURN(level.candidates,
                               item.RequireInt("candidates"));
    SLICELINE_ASSIGN_OR_RETURN(level.valid, item.RequireInt("valid"));
    SLICELINE_ASSIGN_OR_RETURN(level.pruned, item.RequireInt("pruned"));
    SLICELINE_ASSIGN_OR_RETURN(level.seconds, item.RequireNumber("seconds"));
    result.levels.push_back(level);
  }

  const obs::JsonValue* outcome = value.Find("outcome");
  if (outcome == nullptr || !outcome->is_object()) {
    return Status::InvalidArgument("missing 'outcome' object");
  }
  RunOutcome& out = result.outcome;
  SLICELINE_ASSIGN_OR_RETURN(const std::string termination,
                             outcome->RequireString("termination"));
  SLICELINE_ASSIGN_OR_RETURN(out.termination,
                             TerminationFromName(termination));
  out.partial = outcome->GetBoolOr("partial", false);
  out.degradation_steps =
      static_cast<int>(outcome->GetIntOr("degradation_steps", 0));
  out.sigma_raised_to = outcome->GetIntOr("sigma_raised_to", 0);
  out.candidates_capped = outcome->GetIntOr("candidates_capped", 0);
  out.stopped_at_level =
      static_cast<int>(outcome->GetIntOr("stopped_at_level", 0));
  out.resumed_from_checkpoint =
      outcome->GetBoolOr("resumed_from_checkpoint", false);
  out.peak_memory_bytes = outcome->GetIntOr("peak_memory_bytes", 0);
  out.dist_fallback_local = outcome->GetBoolOr("dist_fallback_local", false);
  out.stream_candidates_cached =
      outcome->GetIntOr("stream_candidates_cached", 0);
  out.stream_candidates_delta =
      outcome->GetIntOr("stream_candidates_delta", 0);
  out.stream_candidates_full = outcome->GetIntOr("stream_candidates_full", 0);

  return result;
}

}  // namespace sliceline::serve
