#include "serve/worker_protocol.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "obs/json_validate.h"
#include "serve/protocol.h"

namespace sliceline::serve {

namespace {

StatusOr<const obs::JsonValue*> RequireArray(const obs::JsonValue& object,
                                             const std::string& key) {
  const obs::JsonValue* member = object.Find(key);
  if (member == nullptr || !member->is_array()) {
    return Status::InvalidArgument("missing array field '" + key + "'");
  }
  return member;
}

StatusOr<std::vector<double>> ParseDoubleArray(const obs::JsonValue& object,
                                               const std::string& key) {
  SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue* array,
                             RequireArray(object, key));
  std::vector<double> out;
  out.reserve(array->array_items().size());
  for (const obs::JsonValue& item : array->array_items()) {
    if (!item.is_number()) {
      return Status::InvalidArgument("field '" + key +
                                     "' must contain only numbers");
    }
    out.push_back(item.number_value());
  }
  return out;
}

StatusOr<std::vector<int64_t>> ParseIntArray(const obs::JsonValue& object,
                                             const std::string& key) {
  SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue* array,
                             RequireArray(object, key));
  std::vector<int64_t> out;
  out.reserve(array->array_items().size());
  for (const obs::JsonValue& item : array->array_items()) {
    if (!item.is_number() ||
        item.number_value() != std::floor(item.number_value())) {
      return Status::InvalidArgument("field '" + key +
                                     "' must contain only integers");
    }
    out.push_back(static_cast<int64_t>(item.number_value()));
  }
  return out;
}

void WriteDoubleArray(obs::JsonWriter* writer, const char* key,
                      const std::vector<double>& values) {
  writer->Key(key);
  writer->BeginArray();
  for (double v : values) writer->Double(v);
  writer->EndArray();
}

/// 64-bit values travel as decimal strings: JSON numbers are doubles on
/// the wire and cannot represent every uint64_t.
StatusOr<uint64_t> ParseUint64Text(const std::string& text,
                                   const char* what) {
  if (text.empty() || text.size() > 20 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument(std::string("malformed ") + what + " '" +
                                   text + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return Status::InvalidArgument(std::string("malformed ") + what + " '" +
                                   text + "'");
  }
  return static_cast<uint64_t>(value);
}

StatusOr<uint64_t> ParseChecksum(const obs::JsonValue& object) {
  SLICELINE_ASSIGN_OR_RETURN(const std::string text,
                             object.RequireString("checksum"));
  return ParseUint64Text(text, "checksum");
}

}  // namespace

const char* WorkerRequestTypeName(WorkerRequestType type) {
  switch (type) {
    case WorkerRequestType::kEnlist: return "enlist";
    case WorkerRequestType::kHasShard: return "has_shard";
    case WorkerRequestType::kLoadShard: return "load_shard";
    case WorkerRequestType::kBasicStats: return "basic_stats";
    case WorkerRequestType::kEvalBlock: return "eval_block";
    case WorkerRequestType::kHeartbeat: return "heartbeat";
    case WorkerRequestType::kGetSpans: return "get_spans";
    case WorkerRequestType::kShutdown: return "shutdown";
  }
  return "unknown";
}

StatusOr<WorkerRequestType> WorkerRequestTypeFromName(
    const std::string& name) {
  for (WorkerRequestType t :
       {WorkerRequestType::kEnlist, WorkerRequestType::kHasShard,
        WorkerRequestType::kLoadShard, WorkerRequestType::kBasicStats,
        WorkerRequestType::kEvalBlock, WorkerRequestType::kHeartbeat,
        WorkerRequestType::kGetSpans, WorkerRequestType::kShutdown}) {
    if (name == WorkerRequestTypeName(t)) return t;
  }
  return Status::InvalidArgument("unknown worker request type '" + name +
                                 "'");
}

StatusOr<WorkerRequest> ParseWorkerRequest(const std::string& line) {
  const std::string error = obs::ValidateStrictJson(line);
  if (!error.empty()) {
    return Status::InvalidArgument("malformed request: " + error);
  }
  SLICELINE_ASSIGN_OR_RETURN(obs::JsonValue root, obs::ParseJson(line));
  if (!root.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  WorkerRequest request;
  SLICELINE_ASSIGN_OR_RETURN(const std::string type_name,
                             root.RequireString("type"));
  SLICELINE_ASSIGN_OR_RETURN(request.type,
                             WorkerRequestTypeFromName(type_name));
  request.id = root.GetStringOr("id", "");
  if (root.Find("trace") != nullptr) {
    SLICELINE_ASSIGN_OR_RETURN(const std::string trace_text,
                               root.RequireString("trace"));
    SLICELINE_ASSIGN_OR_RETURN(request.trace_id,
                               ParseUint64Text(trace_text, "trace id"));
  }
  request.parent_span_id = root.GetIntOr("pspan", 0);

  switch (request.type) {
    case WorkerRequestType::kEnlist:
      request.protocol = root.GetIntOr("protocol", 0);
      break;
    case WorkerRequestType::kHeartbeat:
    case WorkerRequestType::kGetSpans:
    case WorkerRequestType::kShutdown:
      break;
    case WorkerRequestType::kHasShard:
    case WorkerRequestType::kBasicStats: {
      SLICELINE_ASSIGN_OR_RETURN(request.dataset_hash,
                                 root.RequireString("dataset"));
      SLICELINE_ASSIGN_OR_RETURN(request.shard, root.RequireInt("shard"));
      break;
    }
    case WorkerRequestType::kLoadShard: {
      SLICELINE_ASSIGN_OR_RETURN(request.dataset_hash,
                                 root.RequireString("dataset"));
      SLICELINE_ASSIGN_OR_RETURN(request.shard, root.RequireInt("shard"));
      LoadShardChunk& c = request.chunk;
      SLICELINE_ASSIGN_OR_RETURN(c.row_begin, root.RequireInt("row_begin"));
      SLICELINE_ASSIGN_OR_RETURN(c.row_end, root.RequireInt("row_end"));
      SLICELINE_ASSIGN_OR_RETURN(c.chunk, root.RequireInt("chunk"));
      SLICELINE_ASSIGN_OR_RETURN(c.chunks, root.RequireInt("chunks"));
      SLICELINE_ASSIGN_OR_RETURN(c.chunk_row_begin,
                                 root.RequireInt("chunk_row_begin"));
      SLICELINE_ASSIGN_OR_RETURN(c.cols, root.RequireInt("cols"));
      SLICELINE_ASSIGN_OR_RETURN(const std::vector<int64_t> codes,
                                 ParseIntArray(root, "codes"));
      c.codes.reserve(codes.size());
      for (int64_t code : codes) c.codes.push_back(static_cast<int32_t>(code));
      SLICELINE_ASSIGN_OR_RETURN(c.errors, ParseDoubleArray(root, "errors"));
      if (root.Find("fdom") != nullptr) {
        SLICELINE_ASSIGN_OR_RETURN(const std::vector<int64_t> fdom,
                                   ParseIntArray(root, "fdom"));
        c.fdom.reserve(fdom.size());
        for (int64_t d : fdom) c.fdom.push_back(static_cast<int32_t>(d));
      }
      break;
    }
    case WorkerRequestType::kEvalBlock: {
      SLICELINE_ASSIGN_OR_RETURN(request.dataset_hash,
                                 root.RequireString("dataset"));
      SLICELINE_ASSIGN_OR_RETURN(request.shard, root.RequireInt("shard"));
      SLICELINE_ASSIGN_OR_RETURN(
          request.strategy,
          core::ParseEvalStrategy(root.GetStringOr("strategy", "bitset")));
      request.block_size = root.GetIntOr("block_size", 16);
      SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue* slices,
                                 RequireArray(root, "slices"));
      for (const obs::JsonValue& slice : slices->array_items()) {
        if (!slice.is_array()) {
          return Status::InvalidArgument(
              "field 'slices' must contain arrays of column ids");
        }
        std::vector<int64_t> columns;
        columns.reserve(slice.array_items().size());
        for (const obs::JsonValue& column : slice.array_items()) {
          if (!column.is_number() ||
              column.number_value() != std::floor(column.number_value())) {
            return Status::InvalidArgument(
                "slice column ids must be integers");
          }
          columns.push_back(static_cast<int64_t>(column.number_value()));
        }
        request.slices.Add(columns);
      }
      break;
    }
  }
  return request;
}

std::string SerializeWorkerRequest(const WorkerRequest& request) {
  std::ostringstream os;
  obs::JsonWriter writer(os);
  writer.BeginObject();
  writer.Key("type");
  writer.String(WorkerRequestTypeName(request.type));
  if (!request.id.empty()) {
    writer.Key("id");
    writer.String(request.id);
  }
  if (request.trace_id != 0) {
    writer.Key("trace");
    writer.String(std::to_string(request.trace_id));
  }
  if (request.parent_span_id != 0) {
    writer.Key("pspan");
    writer.Int(request.parent_span_id);
  }
  switch (request.type) {
    case WorkerRequestType::kEnlist:
      writer.Key("protocol");
      writer.Int(request.protocol);
      break;
    case WorkerRequestType::kHeartbeat:
    case WorkerRequestType::kGetSpans:
    case WorkerRequestType::kShutdown:
      break;
    case WorkerRequestType::kHasShard:
    case WorkerRequestType::kBasicStats:
      writer.Key("dataset");
      writer.String(request.dataset_hash);
      writer.Key("shard");
      writer.Int(request.shard);
      break;
    case WorkerRequestType::kLoadShard: {
      writer.Key("dataset");
      writer.String(request.dataset_hash);
      writer.Key("shard");
      writer.Int(request.shard);
      const LoadShardChunk& c = request.chunk;
      writer.Key("row_begin");
      writer.Int(c.row_begin);
      writer.Key("row_end");
      writer.Int(c.row_end);
      writer.Key("chunk");
      writer.Int(c.chunk);
      writer.Key("chunks");
      writer.Int(c.chunks);
      writer.Key("chunk_row_begin");
      writer.Int(c.chunk_row_begin);
      writer.Key("cols");
      writer.Int(c.cols);
      writer.Key("codes");
      writer.BeginArray();
      for (int32_t code : c.codes) writer.Int(code);
      writer.EndArray();
      WriteDoubleArray(&writer, "errors", c.errors);
      if (!c.fdom.empty()) {
        writer.Key("fdom");
        writer.BeginArray();
        for (int32_t d : c.fdom) writer.Int(d);
        writer.EndArray();
      }
      break;
    }
    case WorkerRequestType::kEvalBlock: {
      writer.Key("dataset");
      writer.String(request.dataset_hash);
      writer.Key("shard");
      writer.Int(request.shard);
      writer.Key("strategy");
      writer.String(core::EvalStrategyName(request.strategy));
      writer.Key("block_size");
      writer.Int(request.block_size);
      writer.Key("slices");
      writer.BeginArray();
      for (int64_t i = 0; i < request.slices.size(); ++i) {
        writer.BeginArray();
        const int64_t* columns = request.slices.Columns(i);
        for (int64_t j = 0; j < request.slices.Length(i); ++j) {
          writer.Int(columns[j]);
        }
        writer.EndArray();
      }
      writer.EndArray();
      break;
    }
  }
  writer.EndObject();
  os << '\n';
  return os.str();
}

void WriteEvalPayload(obs::JsonWriter* writer, const core::EvalResult& result,
                      uint64_t checksum) {
  WriteDoubleArray(writer, "sizes", result.sizes);
  WriteDoubleArray(writer, "error_sums", result.error_sums);
  WriteDoubleArray(writer, "max_errors", result.max_errors);
  writer->Key("checksum");
  writer->String(std::to_string(checksum));
}

StatusOr<core::EvalResult> ParseEvalPayload(const obs::JsonValue& response,
                                            uint64_t* checksum) {
  core::EvalResult result;
  SLICELINE_ASSIGN_OR_RETURN(result.sizes,
                             ParseDoubleArray(response, "sizes"));
  SLICELINE_ASSIGN_OR_RETURN(result.error_sums,
                             ParseDoubleArray(response, "error_sums"));
  SLICELINE_ASSIGN_OR_RETURN(result.max_errors,
                             ParseDoubleArray(response, "max_errors"));
  SLICELINE_ASSIGN_OR_RETURN(*checksum, ParseChecksum(response));
  return result;
}

void WriteBasicStatsPayload(obs::JsonWriter* writer,
                            const ShardBasicStats& stats) {
  writer->Key("n");
  writer->Int(stats.n);
  writer->Key("total_error");
  writer->Double(stats.total_error);
  writer->Key("sizes");
  writer->BeginArray();
  for (int64_t size : stats.sizes) writer->Int(size);
  writer->EndArray();
  WriteDoubleArray(writer, "error_sums", stats.error_sums);
  WriteDoubleArray(writer, "max_errors", stats.max_errors);
}

StatusOr<ShardBasicStats> ParseBasicStatsPayload(
    const obs::JsonValue& response) {
  ShardBasicStats stats;
  SLICELINE_ASSIGN_OR_RETURN(stats.n, response.RequireInt("n"));
  SLICELINE_ASSIGN_OR_RETURN(stats.total_error,
                             response.RequireNumber("total_error"));
  SLICELINE_ASSIGN_OR_RETURN(stats.sizes, ParseIntArray(response, "sizes"));
  SLICELINE_ASSIGN_OR_RETURN(stats.error_sums,
                             ParseDoubleArray(response, "error_sums"));
  SLICELINE_ASSIGN_OR_RETURN(stats.max_errors,
                             ParseDoubleArray(response, "max_errors"));
  if (stats.sizes.size() != stats.error_sums.size() ||
      stats.sizes.size() != stats.max_errors.size()) {
    return Status::InvalidArgument("basic stats arrays disagree on length");
  }
  return stats;
}

void WriteSpansPayload(
    obs::JsonWriter* writer, const std::vector<obs::RemoteSpan>& spans,
    const std::vector<std::pair<std::string, double>>& counters) {
  writer->Key("spans");
  writer->BeginArray();
  for (const obs::RemoteSpan& span : spans) {
    writer->BeginObject();
    writer->Key("name");
    writer->String(span.name);
    writer->Key("cat");
    writer->String(span.category);
    writer->Key("ph");
    writer->String(std::string(1, span.phase));
    writer->Key("ts");
    writer->Int(span.ts_us);
    writer->Key("dur");
    writer->Int(span.dur_us);
    writer->Key("tid");
    writer->Int(span.tid);
    if (span.has_arg) {
      writer->Key("v");
      writer->Int(span.arg);
    }
    if (!span.detail.empty()) {
      writer->Key("detail");
      writer->String(span.detail);
    }
    if (span.trace_id != 0) {
      writer->Key("trace");
      writer->String(std::to_string(span.trace_id));
    }
    if (span.parent_span_id != 0) {
      writer->Key("pspan");
      writer->Int(span.parent_span_id);
    }
    writer->EndObject();
  }
  writer->EndArray();
  writer->Key("counters");
  writer->BeginArray();
  for (const auto& [name, value] : counters) {
    writer->BeginObject();
    writer->Key("name");
    writer->String(name);
    writer->Key("value");
    writer->Double(value);
    writer->EndObject();
  }
  writer->EndArray();
}

Status ParseSpansPayload(
    const obs::JsonValue& response, std::vector<obs::RemoteSpan>* spans,
    std::vector<std::pair<std::string, double>>* counters) {
  SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue* span_array,
                             RequireArray(response, "spans"));
  spans->clear();
  spans->reserve(span_array->array_items().size());
  for (const obs::JsonValue& item : span_array->array_items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("field 'spans' must contain objects");
    }
    obs::RemoteSpan span;
    SLICELINE_ASSIGN_OR_RETURN(span.name, item.RequireString("name"));
    span.category = item.GetStringOr("cat", "sliceline");
    SLICELINE_ASSIGN_OR_RETURN(const std::string phase,
                               item.RequireString("ph"));
    if (phase.size() != 1) {
      return Status::InvalidArgument("span phase must be one character");
    }
    span.phase = phase[0];
    SLICELINE_ASSIGN_OR_RETURN(span.ts_us, item.RequireInt("ts"));
    span.dur_us = item.GetIntOr("dur", 0);
    span.tid = item.GetIntOr("tid", 0);
    if (item.Find("v") != nullptr) {
      span.has_arg = true;
      SLICELINE_ASSIGN_OR_RETURN(span.arg, item.RequireInt("v"));
    }
    span.detail = item.GetStringOr("detail", "");
    if (item.Find("trace") != nullptr) {
      SLICELINE_ASSIGN_OR_RETURN(const std::string trace_text,
                                 item.RequireString("trace"));
      SLICELINE_ASSIGN_OR_RETURN(span.trace_id,
                                 ParseUint64Text(trace_text, "trace id"));
    }
    span.parent_span_id = item.GetIntOr("pspan", 0);
    spans->push_back(std::move(span));
  }
  SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue* counter_array,
                             RequireArray(response, "counters"));
  counters->clear();
  counters->reserve(counter_array->array_items().size());
  for (const obs::JsonValue& item : counter_array->array_items()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("field 'counters' must contain objects");
    }
    SLICELINE_ASSIGN_OR_RETURN(std::string name, item.RequireString("name"));
    SLICELINE_ASSIGN_OR_RETURN(const double value,
                               item.RequireNumber("value"));
    counters->emplace_back(std::move(name), value);
  }
  return Status::OK();
}

}  // namespace sliceline::serve
