#include "serve/worker_protocol.h"

#include <cstdlib>
#include <limits>
#include <optional>
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

/// The integers of array `key`, each checked to lie in [lo, hi].
StatusOr<std::vector<int64_t>> ParseIntArray(
    const obs::JsonValue& object, const std::string& key,
    int64_t lo = std::numeric_limits<int64_t>::min(),
    int64_t hi = std::numeric_limits<int64_t>::max()) {
  SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue* array,
                             RequireArray(object, key));
  std::vector<int64_t> out;
  out.reserve(array->array_items().size());
  for (const obs::JsonValue& item : array->array_items()) {
    const std::optional<int64_t> value = item.int_value();
    if (!value.has_value() || *value < lo || *value > hi) {
      return Status::InvalidArgument("field '" + key +
                                     "' must contain only integers in [" +
                                     std::to_string(lo) + ", " +
                                     std::to_string(hi) + "]");
    }
    out.push_back(*value);
  }
  return out;
}

StatusOr<std::vector<int32_t>> ParseInt32Array(const obs::JsonValue& object,
                                               const std::string& key) {
  SLICELINE_ASSIGN_OR_RETURN(
      const std::vector<int64_t> values,
      ParseIntArray(object, key, std::numeric_limits<int32_t>::min(),
                    std::numeric_limits<int32_t>::max()));
  return std::vector<int32_t>(values.begin(), values.end());
}

/// Exact sums travel as one array each: [anchor, digit count, digits...],
/// digits in [0, 2^32) from the least significant up.
void WriteExactSums(obs::JsonWriter* writer, const char* key,
                    const std::vector<linalg::ExactSum>& sums) {
  writer->Key(key);
  writer->BeginArray();
  for (const linalg::ExactSum& sum : sums) {
    writer->BeginArray();
    writer->Int(sum.anchor());
    writer->Int(static_cast<int64_t>(sum.digits().size()));
    for (uint32_t digit : sum.digits()) writer->Int(digit);
    writer->EndArray();
  }
  writer->EndArray();
}

StatusOr<linalg::ExactSum> ParseExactSum(const obs::JsonValue& item) {
  const std::vector<obs::JsonValue>* parts =
      item.is_array() ? &item.array_items() : nullptr;
  if (parts == nullptr || parts->size() < 2) {
    return Status::InvalidArgument(
        "an exact sum must be [anchor, digit count, digits...]");
  }
  const std::optional<int64_t> anchor = (*parts)[0].int_value();
  const std::optional<int64_t> count = (*parts)[1].int_value();
  // The declared digit count is checked before anything is allocated.
  if (!anchor.has_value() || !count.has_value() || *count < 0 ||
      *count > linalg::ExactSum::kMaxDigits ||
      static_cast<size_t>(*count) != parts->size() - 2) {
    return Status::InvalidArgument("malformed exact sum header");
  }
  std::vector<uint32_t> digits;
  digits.reserve(static_cast<size_t>(*count));
  for (size_t k = 2; k < parts->size(); ++k) {
    const std::optional<int64_t> digit = (*parts)[k].int_value();
    if (!digit.has_value() || *digit < 0 ||
        *digit > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument("exact sum digit out of range");
    }
    digits.push_back(static_cast<uint32_t>(*digit));
  }
  return linalg::ExactSum::FromDigits(*anchor, std::move(digits));
}

StatusOr<std::vector<linalg::ExactSum>> ParseExactSums(
    const obs::JsonValue& object, const std::string& key) {
  SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue* array,
                             RequireArray(object, key));
  std::vector<linalg::ExactSum> out;
  out.reserve(array->array_items().size());
  for (const obs::JsonValue& item : array->array_items()) {
    SLICELINE_ASSIGN_OR_RETURN(linalg::ExactSum sum, ParseExactSum(item));
    out.push_back(std::move(sum));
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

/// The "sizes", "error_sums" and "max_errors" arrays of a payload.
void WriteStats(obs::JsonWriter* writer, const core::ExactEvalResult& stats) {
  writer->Key("sizes");
  writer->BeginArray();
  for (int64_t size : stats.sizes) writer->Int(size);
  writer->EndArray();
  WriteExactSums(writer, "error_sums", stats.error_sums);
  WriteDoubleArray(writer, "max_errors", stats.max_errors);
}

StatusOr<core::ExactEvalResult> ParseStats(const obs::JsonValue& response) {
  core::ExactEvalResult stats;
  SLICELINE_ASSIGN_OR_RETURN(stats.sizes, ParseIntArray(response, "sizes"));
  SLICELINE_ASSIGN_OR_RETURN(stats.error_sums,
                             ParseExactSums(response, "error_sums"));
  SLICELINE_ASSIGN_OR_RETURN(stats.max_errors,
                             ParseDoubleArray(response, "max_errors"));
  if (stats.sizes.size() != stats.error_sums.size() ||
      stats.sizes.size() != stats.max_errors.size()) {
    return Status::InvalidArgument("statistics arrays disagree on length");
  }
  return stats;
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
      SLICELINE_ASSIGN_OR_RETURN(c.codes, ParseInt32Array(root, "codes"));
      SLICELINE_ASSIGN_OR_RETURN(c.errors, ParseDoubleArray(root, "errors"));
      if (root.Find("fdom") != nullptr) {
        SLICELINE_ASSIGN_OR_RETURN(c.fdom, ParseInt32Array(root, "fdom"));
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
          const std::optional<int64_t> id = column.int_value();
          if (!id.has_value()) {
            return Status::InvalidArgument(
                "slice column ids must be integers");
          }
          columns.push_back(*id);
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

void WriteEvalPayload(obs::JsonWriter* writer,
                      const core::ExactEvalResult& result,
                      uint64_t checksum) {
  WriteStats(writer, result);
  writer->Key("checksum");
  writer->String(std::to_string(checksum));
}

StatusOr<core::ExactEvalResult> ParseEvalPayload(
    const obs::JsonValue& response, uint64_t* checksum) {
  SLICELINE_ASSIGN_OR_RETURN(core::ExactEvalResult result,
                             ParseStats(response));
  SLICELINE_ASSIGN_OR_RETURN(*checksum, ParseChecksum(response));
  return result;
}

void WriteBasicStatsPayload(obs::JsonWriter* writer,
                            const ShardBasicStats& stats) {
  writer->Key("n");
  writer->Int(stats.n);
  WriteStats(writer, stats.columns);
}

StatusOr<ShardBasicStats> ParseBasicStatsPayload(
    const obs::JsonValue& response) {
  ShardBasicStats stats;
  SLICELINE_ASSIGN_OR_RETURN(stats.n, response.RequireInt("n"));
  SLICELINE_ASSIGN_OR_RETURN(stats.columns, ParseStats(response));
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
