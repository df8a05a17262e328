#include "serve/worker_protocol.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <functional>
#include <limits>
#include <sstream>

#include "serve/protocol.h"

namespace sliceline::serve {

namespace {

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

StatusOr<std::vector<linalg::ExactSum>> ParseExactSums(
    const obs::JsonValue& object, const std::string& key) {
  std::vector<std::vector<int64_t>> items;
  SLICELINE_RETURN_NOT_OK(object.Require(key, &items));
  std::vector<linalg::ExactSum> out;
  out.reserve(items.size());
  for (const std::vector<int64_t>& parts : items) {
    if (parts.size() < 2) {
      return Status::InvalidArgument(
          "an exact sum must be [anchor, digit count, digits...]");
    }
    const int64_t count = parts[1];
    if (count < 0 || count > linalg::ExactSum::kMaxDigits ||
        static_cast<size_t>(count) != parts.size() - 2) {
      return Status::InvalidArgument("malformed exact sum header");
    }
    std::vector<uint32_t> digits;
    digits.reserve(static_cast<size_t>(count));
    for (size_t k = 2; k < parts.size(); ++k) {
      if (parts[k] < 0 || parts[k] > std::numeric_limits<uint32_t>::max()) {
        return Status::InvalidArgument("exact sum digit out of range");
      }
      digits.push_back(static_cast<uint32_t>(parts[k]));
    }
    SLICELINE_ASSIGN_OR_RETURN(
        linalg::ExactSum sum,
        linalg::ExactSum::FromDigits(parts[0], std::move(digits)));
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

/// A 64-bit member, carried as a decimal string: JSON numbers are doubles
/// on the wire and cannot represent every uint64_t. Absent leaves *out
/// unless `required`.
Status Uint64Member(const obs::JsonValue& object, const std::string& key,
                    bool required, uint64_t* out) {
  if (!required && object.Find(key) == nullptr) return Status::OK();
  std::string text;
  SLICELINE_RETURN_NOT_OK(object.Require(key, &text));
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text.size() > 20 ||
      text.find_first_not_of("0123456789") != std::string::npos ||
      errno != 0 || *end != '\0') {
    return Status::InvalidArgument("field '" + key +
                                   "' must be a decimal uint64, got '" +
                                   text + "'");
  }
  *out = static_cast<uint64_t>(value);
  return Status::OK();
}

/// The items of array member `key`, each an object (reply decoding).
StatusOr<const std::vector<obs::JsonValue>*> RequireObjects(
    const obs::JsonValue& object, const std::string& key) {
  const obs::JsonValue* member = object.Find(key);
  bool ok = member != nullptr && member->is_array();
  for (size_t i = 0; ok && i < member->array_items().size(); ++i) {
    ok = member->array_items()[i].is_object();
  }
  if (!ok) {
    return Status::InvalidArgument("field '" + key +
                                   "' must be an array of objects");
  }
  return &member->array_items();
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
  SLICELINE_RETURN_NOT_OK(response.Require("sizes", &stats.sizes));
  SLICELINE_ASSIGN_OR_RETURN(stats.error_sums,
                             ParseExactSums(response, "error_sums"));
  SLICELINE_RETURN_NOT_OK(response.Require("max_errors", &stats.max_errors));
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
  SLICELINE_ASSIGN_OR_RETURN(const obs::JsonValue root,
                             ParseRequestObject(line));

  WorkerRequest request;
  std::string type_name;
  SLICELINE_RETURN_NOT_OK(root.Require("type", &type_name));
  SLICELINE_ASSIGN_OR_RETURN(request.type,
                             WorkerRequestTypeFromName(type_name));
  SLICELINE_RETURN_NOT_OK(root.Optional("id", &request.id));
  SLICELINE_RETURN_NOT_OK(
      Uint64Member(root, "trace", /*required=*/false, &request.trace_id));
  SLICELINE_RETURN_NOT_OK(root.Optional("pspan", &request.parent_span_id));

  switch (request.type) {
    case WorkerRequestType::kEnlist:
      SLICELINE_RETURN_NOT_OK(root.Require("protocol", &request.protocol));
      break;
    case WorkerRequestType::kHeartbeat:
    case WorkerRequestType::kGetSpans:
    case WorkerRequestType::kShutdown:
      break;
    case WorkerRequestType::kHasShard:
    case WorkerRequestType::kBasicStats:
      SLICELINE_RETURN_NOT_OK(root.Require("dataset", &request.dataset_hash));
      SLICELINE_RETURN_NOT_OK(root.Require("shard", &request.shard));
      break;
    case WorkerRequestType::kLoadShard: {
      SLICELINE_RETURN_NOT_OK(root.Require("dataset", &request.dataset_hash));
      SLICELINE_RETURN_NOT_OK(root.Require("shard", &request.shard));
      LoadShardChunk& c = request.chunk;
      SLICELINE_RETURN_NOT_OK(root.Require("row_begin", &c.row_begin));
      SLICELINE_RETURN_NOT_OK(root.Require("row_end", &c.row_end));
      SLICELINE_RETURN_NOT_OK(root.Require("chunk", &c.chunk));
      SLICELINE_RETURN_NOT_OK(root.Require("chunks", &c.chunks));
      SLICELINE_RETURN_NOT_OK(
          root.Require("chunk_row_begin", &c.chunk_row_begin));
      SLICELINE_RETURN_NOT_OK(root.Require("cols", &c.cols));
      SLICELINE_RETURN_NOT_OK(root.Require("codes", &c.codes));
      SLICELINE_RETURN_NOT_OK(root.Require("errors", &c.errors));
      SLICELINE_RETURN_NOT_OK(root.Optional("fdom", &c.fdom));
      break;
    }
    case WorkerRequestType::kEvalBlock: {
      SLICELINE_RETURN_NOT_OK(root.Require("dataset", &request.dataset_hash));
      SLICELINE_RETURN_NOT_OK(root.Require("shard", &request.shard));
      std::string strategy = core::EvalStrategyName(request.strategy);
      SLICELINE_RETURN_NOT_OK(root.Optional("strategy", &strategy));
      SLICELINE_ASSIGN_OR_RETURN(request.strategy,
                                 core::ParseEvalStrategy(strategy));
      SLICELINE_RETURN_NOT_OK(root.Optional("block_size", &request.block_size));
      std::vector<std::vector<int64_t>> slices;
      SLICELINE_RETURN_NOT_OK(root.Require("slices", &slices));
      for (const std::vector<int64_t>& columns : slices) {
        // The evaluator's contract; the column range is the shard's to check.
        if (columns.empty() ||
            std::adjacent_find(columns.begin(), columns.end(),
                               std::greater_equal<>()) != columns.end()) {
          return Status::InvalidArgument(
              "field 'slices' must hold non-empty arrays of strictly "
              "ascending column ids");
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
  SLICELINE_RETURN_NOT_OK(
      Uint64Member(response, "checksum", /*required=*/true, checksum));
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
  SLICELINE_ASSIGN_OR_RETURN(const std::vector<obs::JsonValue>* span_items,
                             RequireObjects(response, "spans"));
  spans->clear();
  spans->reserve(span_items->size());
  for (const obs::JsonValue& item : *span_items) {
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
    span.has_arg = item.Find("v") != nullptr;
    SLICELINE_RETURN_NOT_OK(item.Optional("v", &span.arg));
    span.detail = item.GetStringOr("detail", "");
    SLICELINE_RETURN_NOT_OK(
        Uint64Member(item, "trace", /*required=*/false, &span.trace_id));
    span.parent_span_id = item.GetIntOr("pspan", 0);
    spans->push_back(std::move(span));
  }
  SLICELINE_ASSIGN_OR_RETURN(const std::vector<obs::JsonValue>* counter_items,
                             RequireObjects(response, "counters"));
  counters->clear();
  counters->reserve(counter_items->size());
  for (const obs::JsonValue& item : *counter_items) {
    SLICELINE_ASSIGN_OR_RETURN(std::string name, item.RequireString("name"));
    SLICELINE_ASSIGN_OR_RETURN(const double value,
                               item.RequireNumber("value"));
    counters->emplace_back(std::move(name), value);
  }
  return Status::OK();
}

}  // namespace sliceline::serve
