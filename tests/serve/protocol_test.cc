// Wire-protocol round trips: request encode/decode, structured error
// mapping, and the exact (bit-for-bit double) result serialization that
// lets a client reproduce core::FormatResult output from a response.
#include "serve/protocol.h"
#include "serve/worker_protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.h"
#include "obs/json_parse.h"
#include "obs/json_validate.h"
#include "obs/json_writer.h"

namespace sliceline::serve {
namespace {

TEST(ServeProtocolTest, RequestTypeNamesRoundTrip) {
  for (RequestType type :
       {RequestType::kRegisterDataset, RequestType::kFindSlices,
        RequestType::kGetStatus, RequestType::kCancel,
        RequestType::kGetReport, RequestType::kGetTrace,
        RequestType::kListDatasets, RequestType::kServerStats}) {
    auto parsed = RequestTypeFromName(RequestTypeName(type));
    ASSERT_TRUE(parsed.ok()) << RequestTypeName(type);
    EXPECT_EQ(parsed.value(), type);
  }
  EXPECT_FALSE(RequestTypeFromName("no_such_request").ok());
}

TEST(ServeProtocolTest, RegisterRequestRoundTrips) {
  Request request;
  request.type = RequestType::kRegisterDataset;
  request.id = "r1";
  request.register_dataset.name = "adult";
  request.register_dataset.csv_path = "/data/adult.csv";
  request.register_dataset.label = "income";
  request.register_dataset.task = "class";
  request.register_dataset.bins = 7;
  request.register_dataset.drop = {"fnlwgt", "education-num"};

  const std::string line = SerializeRequest(request);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_TRUE(obs::ValidateStrictJson(line).empty());

  auto parsed = ParseRequest(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, RequestType::kRegisterDataset);
  EXPECT_EQ(parsed->id, "r1");
  EXPECT_EQ(parsed->register_dataset.name, "adult");
  EXPECT_EQ(parsed->register_dataset.csv_path, "/data/adult.csv");
  EXPECT_EQ(parsed->register_dataset.label, "income");
  EXPECT_EQ(parsed->register_dataset.task, "class");
  EXPECT_EQ(parsed->register_dataset.bins, 7);
  EXPECT_EQ(parsed->register_dataset.drop,
            (std::vector<std::string>{"fnlwgt", "education-num"}));
}

TEST(ServeProtocolTest, FindSlicesRequestRoundTrips) {
  Request request;
  request.type = RequestType::kFindSlices;
  request.id = "f2";
  request.find_slices.dataset = "adult";
  request.find_slices.engine = "la";
  request.find_slices.k = 7;
  request.find_slices.alpha = 0.875;
  request.find_slices.sigma = 64;
  request.find_slices.max_level = 3;
  request.find_slices.deadline_ms = 1500;
  request.find_slices.memory_budget_mb = 256;
  request.find_slices.wait = false;

  auto parsed = ParseRequest(SerializeRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const FindSlicesRequest& f = parsed->find_slices;
  EXPECT_EQ(f.dataset, "adult");
  EXPECT_EQ(f.engine, "la");
  EXPECT_EQ(f.k, 7);
  EXPECT_EQ(f.alpha, 0.875);
  EXPECT_EQ(f.sigma, 64);
  EXPECT_EQ(f.max_level, 3);
  EXPECT_EQ(f.deadline_ms, 1500);
  EXPECT_EQ(f.memory_budget_mb, 256);
  EXPECT_FALSE(f.wait);
}

TEST(ServeProtocolTest, FindSlicesDefaultsApply) {
  auto parsed =
      ParseRequest("{\"type\":\"find_slices\",\"dataset\":\"d\"}\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, "");
  EXPECT_EQ(parsed->find_slices.engine, "native");
  EXPECT_EQ(parsed->find_slices.k, 4);
  EXPECT_EQ(parsed->find_slices.alpha, 0.95);
  EXPECT_EQ(parsed->find_slices.sigma, 0);
  EXPECT_TRUE(parsed->find_slices.wait);
}

TEST(ServeProtocolTest, JobAddressedRequestsRoundTrip) {
  // status/cancel/report/trace all carry exactly {type, id, job}.
  for (RequestType type :
       {RequestType::kGetStatus, RequestType::kCancel,
        RequestType::kGetReport, RequestType::kGetTrace}) {
    Request request;
    request.type = type;
    request.id = "s3";
    request.job_id = 42;
    const std::string line = SerializeRequest(request);
    EXPECT_TRUE(obs::ValidateStrictJson(line).empty()) << line;
    auto parsed = ParseRequest(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->type, type);
    EXPECT_EQ(parsed->id, "s3");
    EXPECT_EQ(parsed->job_id, 42);
  }
}

TEST(ServeProtocolTest, ReportAndTraceRequireJobId) {
  for (const char* type : {"get_report", "get_trace"}) {
    EXPECT_FALSE(
        ParseRequest(std::string("{\"type\":\"") + type + "\"}\n").ok())
        << type;
  }
}

TEST(ServeProtocolTest, UnknownFieldsAreIgnored) {
  auto parsed = ParseRequest(
      "{\"type\":\"server_stats\",\"id\":\"x\",\"future_field\":[1,2]}\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, RequestType::kServerStats);
}

TEST(ServeProtocolTest, MalformedRequestsAreRejected) {
  const char* bad_lines[] = {
      "not json at all\n",
      "[1,2,3]\n",                            // not an object
      "{\"id\":\"x\"}\n",                     // missing type
      "{\"type\":\"launch_missiles\"}\n",     // unknown type
      "{\"type\":\"find_slices\"}\n",         // missing dataset
      "{\"type\":\"get_status\"}\n",          // missing job
      "{\"type\":\"find_slices\",\"dataset\":\"d\",\"k\":\"four\"}\n",
      "{\"type\":\"register_dataset\",\"name\":\"n\",\"csv\":\"c\","
      "\"label\":\"l\",\"drop\":\"oops\"}\n",  // drop must be an array
      "{\"type\":\"find_slices\",\"dataset\":\"d\",}\n",  // trailing comma
  };
  for (const char* line : bad_lines) {
    auto parsed = ParseRequest(line);
    EXPECT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

TEST(ServeProtocolTest, WorkerEvalBlockStrategyRoundTrips) {
  using EvalStrategy = core::SliceLineConfig::EvalStrategy;
  for (EvalStrategy strategy :
       {EvalStrategy::kScanBlock, EvalStrategy::kBitset}) {
    WorkerRequest request;
    request.type = WorkerRequestType::kEvalBlock;
    request.dataset_hash = "123";
    request.shard = 2;
    request.strategy = strategy;
    request.block_size = 8;
    request.slices.Add({1, 4});
    auto parsed = ParseWorkerRequest(SerializeWorkerRequest(request));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->strategy, strategy);
    EXPECT_EQ(parsed->block_size, 8);
    ASSERT_EQ(parsed->slices.size(), 1);
  }
  // An absent strategy means the default bitset.
  auto defaulted = ParseWorkerRequest(
      "{\"type\":\"eval_block\",\"dataset\":\"1\",\"shard\":0,"
      "\"slices\":[[0]]}\n");
  ASSERT_TRUE(defaulted.ok()) << defaulted.status().ToString();
  EXPECT_EQ(defaulted->strategy, EvalStrategy::kBitset);
}

TEST(ServeProtocolTest, WorkerEvalBlockRejectsUnknownStrategy) {
  // "index" was removed with protocol version 2; "scan" is the version-1
  // spelling of scan_block.
  for (const char* name : {"index", "scan", "scan-block", ""}) {
    const std::string line =
        std::string("{\"type\":\"eval_block\",\"dataset\":\"1\",") +
        "\"shard\":0,\"strategy\":\"" + name + "\",\"slices\":[[0]]}\n";
    auto parsed = ParseWorkerRequest(line);
    ASSERT_FALSE(parsed.ok()) << name;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(ServeProtocolTest, WorkerRequestsRejectMistypedFields) {
  // A present field of the wrong type is an error naming it, never its
  // default: "id":7 is not id "", "pspan":"x" is not 0.
  const std::pair<const char*, const char*> cases[] = {
      {"id", "{\"type\":\"heartbeat\",\"id\":7}"},
      {"pspan", "{\"type\":\"heartbeat\",\"pspan\":\"x\"}"},
      {"protocol", "{\"type\":\"enlist\",\"protocol\":\"3\"}"},
      {"block_size",
       "{\"type\":\"eval_block\",\"dataset\":\"1\",\"shard\":0,"
       "\"block_size\":\"8\",\"slices\":[[0]]}"},
      {"strategy",
       "{\"type\":\"eval_block\",\"dataset\":\"1\",\"shard\":0,"
       "\"strategy\":5,\"slices\":[[0]]}"},
  };
  for (const auto& [field, line] : cases) {
    auto parsed = ParseWorkerRequest(std::string(line) + "\n");
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(parsed.status().message().find(std::string("'") + field + "'"),
              std::string::npos)
        << parsed.status().message();
  }
}

TEST(ServeProtocolTest, IntegerFieldsOutsideTheInt64RangeAreRejected) {
  // A double that is not an integer, or lies outside int64_t, must not be
  // cast: 1e30 and 1e400 (parsed as +inf) used to come back as INT64_MIN.
  for (const char* number : {"1e30", "-1e30", "1e400", "-1e400", "1.5",
                             "9223372036854775808"}) {
    const std::string text = std::string("{\"n\": ") + number + "}";
    auto root = obs::ParseJson(text);
    ASSERT_TRUE(root.ok()) << text;
    auto value = root->RequireInt("n");
    ASSERT_FALSE(value.ok()) << number;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument) << number;
    EXPECT_EQ(root->GetIntOr("n", 7), 7) << number;
  }
  auto root = obs::ParseJson("{\"n\": -9223372036854775808, \"m\": 42}");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->RequireInt("n").value(), INT64_MIN);
  EXPECT_EQ(root->GetIntOr("m", 7), 42);

  // Every protocol field that carries an integer: the client protocol's
  // job id, and the worker protocol's shard, ranges, chunk, codes and fdom.
  for (const std::string& line : {
           std::string("{\"type\":\"get_status\",\"job\":1e30}\n"),
           std::string("{\"type\":\"cancel\",\"job\":1e400}\n"),
           std::string("{\"type\":\"find_slices\",\"dataset\":\"d\",") +
               "\"k\":1e30}\n"}) {
    auto parsed = ParseRequest(line);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
  const std::string load =
      "{\"type\":\"load_shard\",\"dataset\":\"1\",\"shard\":0,"
      "\"row_begin\":0,\"row_end\":1,\"chunk\":0,\"chunks\":1,"
      "\"chunk_row_begin\":0,\"cols\":1,\"codes\":[1],\"errors\":[0.5],"
      "\"fdom\":[2]}\n";
  ASSERT_TRUE(ParseWorkerRequest(load).ok());
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"shard\":0", "\"shard\":1e30"},
           {"\"row_end\":1", "\"row_end\":1e400"},
           {"\"chunk\":0", "\"chunk\":-1e30"},
           {"\"codes\":[1]", "\"codes\":[1e30]"},
           {"\"codes\":[1]", "\"codes\":[4294967297]"},
           {"\"fdom\":[2]", "\"fdom\":[1e400]"}}) {
    std::string line = load;
    line.replace(line.find(from), from.size(), to);
    auto parsed = ParseWorkerRequest(line);
    ASSERT_FALSE(parsed.ok()) << to;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << to;
  }
  auto job = ParseWorkerRequest(
      "{\"type\":\"eval_block\",\"dataset\":\"1\",\"shard\":1e300,"
      "\"slices\":[[0]]}\n");
  EXPECT_FALSE(job.ok());
}

TEST(ServeProtocolTest, ExactPartialsRoundTripAndRejectBadDigitCounts) {
  core::ExactEvalResult partial(2);
  partial.sizes = {3, 0};
  partial.error_sums[0].Add(0.1);
  partial.error_sums[0].Add(1e-300);
  partial.max_errors = {0.1, 0.0};
  std::ostringstream os;
  obs::JsonWriter writer(os);
  writer.BeginObject();
  WriteEvalPayload(&writer, partial, 99);
  writer.EndObject();
  const std::string text = os.str();
  auto root = obs::ParseJson(text);
  ASSERT_TRUE(root.ok());
  uint64_t checksum = 0;
  auto back = ParseEvalPayload(*root, &checksum);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(checksum, 99u);
  EXPECT_EQ(back->sizes, partial.sizes);
  EXPECT_EQ(back->error_sums, partial.error_sums);
  EXPECT_EQ(back->max_errors, partial.max_errors);
  // [anchor, count, digits...]: a count the digits do not match, one past
  // the limit, or a digit past 32 bits is malformed.
  for (const char* sums :
       {"[[0,2,1]]", "[[0,1,1,2]]", "[[0,1000,1]]", "[[0,-1]]",
        "[[0,1,4294967296]]", "[[16,1,1]]", "[[0]]", "[5]"}) {
    const std::string bad = std::string("{\"sizes\":[1],\"error_sums\":") +
                            sums + ",\"max_errors\":[1],\"checksum\":\"1\"}";
    auto bad_root = obs::ParseJson(bad);
    ASSERT_TRUE(bad_root.ok()) << bad;
    auto parsed = ParseEvalPayload(*bad_root, &checksum);
    ASSERT_FALSE(parsed.ok()) << sums;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << sums;
  }
}

TEST(ServeProtocolTest, ErrorCodesRoundTripThroughErrorLines) {
  const Status statuses[] = {
      Status::InvalidArgument("bad"),
      Status(StatusCode::kOutOfRange, "range"),
      Status::NotFound("missing"),
      Status(StatusCode::kIoError, "io"),
      Status(StatusCode::kNotImplemented, "todo"),
      Status::Internal("bug"),
      Status::Cancelled("stop"),
      Status(StatusCode::kDeadlineExceeded, "late"),
      Status::ResourceExhausted("full"),
  };
  for (const Status& status : statuses) {
    const std::string line = MakeErrorLine("e7", status);
    EXPECT_TRUE(obs::ValidateStrictJson(line).empty()) << line;
    auto parsed = obs::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(parsed->GetStringOr("id", ""), "e7");
    EXPECT_FALSE(parsed->GetBoolOr("ok", true));
    const obs::JsonValue* error = parsed->Find("error");
    ASSERT_NE(error, nullptr);
    const Status round = StatusFromError(error->GetStringOr("code", ""),
                                         error->GetStringOr("message", ""));
    EXPECT_EQ(round.code(), status.code()) << status.ToString();
    EXPECT_EQ(round.message(), status.message());
  }
}

TEST(ServeProtocolTest, UnknownErrorCodeMapsToInternal) {
  const Status status = StatusFromError("quantum_flux", "what");
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("quantum_flux"), std::string::npos);
}

/// A result exercising every serialized field with doubles that do not
/// survive naive formatting (the %.17g writer + strtod parser must
/// reproduce them bit-for-bit).
core::SliceLineResult MakeAwkwardResult() {
  core::SliceLineResult result;
  result.min_support = 32;
  result.average_error = 1.0 / 3.0;
  result.total_seconds = 0.1 + 0.2;  // 0.30000000000000004
  result.total_evaluated = 123;

  core::Slice first;
  first.predicates = {{0, 2}, {3, 1}};
  first.stats.score = 0.1;
  first.stats.error_sum = 6.02214076e23;
  first.stats.max_error = 1e-300;
  first.stats.size = 40;
  result.top_k.push_back(first);

  core::Slice second;
  second.predicates = {{2, 4}};
  second.stats.score = -2.0 / 7.0;
  second.stats.error_sum = 111.11111111111111;
  second.stats.max_error = 2.7755575615628914e-17;
  second.stats.size = 17;
  result.top_k.push_back(second);

  core::LevelStats level;
  level.level = 1;
  level.candidates = 10;
  level.valid = 8;
  level.pruned = 2;
  level.seconds = 0.001953125;
  result.levels.push_back(level);
  level.level = 2;
  level.candidates = 45;
  level.valid = 12;
  level.pruned = 33;
  level.seconds = 1.0 / 1024.0;
  result.levels.push_back(level);

  result.outcome.termination = RunOutcome::Termination::kDegraded;
  result.outcome.partial = true;
  result.outcome.degradation_steps = 2;
  result.outcome.sigma_raised_to = 64;
  result.outcome.candidates_capped = 1000;
  result.outcome.stopped_at_level = 2;
  result.outcome.resumed_from_checkpoint = true;
  result.outcome.peak_memory_bytes = 1 << 22;
  return result;
}

TEST(ServeProtocolTest, ResultJsonRoundTripsBitForBit) {
  const core::SliceLineResult original = MakeAwkwardResult();
  const std::vector<std::string> names = {"age", "sex", "degree", "marital"};

  std::ostringstream os;
  obs::JsonWriter writer(os);
  WriteResultJson(&writer, original, names);
  const std::string json = os.str();
  EXPECT_TRUE(obs::ValidateStrictJson(json).empty()) << json;

  auto value = obs::ParseJson(json);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  std::vector<std::string> parsed_names;
  auto parsed = ParseResultJson(value.value(), &parsed_names);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed_names, names);
  EXPECT_EQ(parsed->min_support, original.min_support);
  EXPECT_EQ(parsed->average_error, original.average_error);
  EXPECT_EQ(parsed->total_seconds, original.total_seconds);
  EXPECT_EQ(parsed->total_evaluated, original.total_evaluated);

  ASSERT_EQ(parsed->top_k.size(), original.top_k.size());
  for (size_t i = 0; i < original.top_k.size(); ++i) {
    EXPECT_EQ(parsed->top_k[i].predicates, original.top_k[i].predicates);
    EXPECT_EQ(parsed->top_k[i].stats.score, original.top_k[i].stats.score);
    EXPECT_EQ(parsed->top_k[i].stats.error_sum,
              original.top_k[i].stats.error_sum);
    EXPECT_EQ(parsed->top_k[i].stats.max_error,
              original.top_k[i].stats.max_error);
    EXPECT_EQ(parsed->top_k[i].stats.size, original.top_k[i].stats.size);
  }

  ASSERT_EQ(parsed->levels.size(), original.levels.size());
  for (size_t i = 0; i < original.levels.size(); ++i) {
    EXPECT_EQ(parsed->levels[i].level, original.levels[i].level);
    EXPECT_EQ(parsed->levels[i].candidates, original.levels[i].candidates);
    EXPECT_EQ(parsed->levels[i].valid, original.levels[i].valid);
    EXPECT_EQ(parsed->levels[i].pruned, original.levels[i].pruned);
    EXPECT_EQ(parsed->levels[i].seconds, original.levels[i].seconds);
  }

  EXPECT_EQ(parsed->outcome.termination, original.outcome.termination);
  EXPECT_EQ(parsed->outcome.partial, original.outcome.partial);
  EXPECT_EQ(parsed->outcome.degradation_steps,
            original.outcome.degradation_steps);
  EXPECT_EQ(parsed->outcome.sigma_raised_to, original.outcome.sigma_raised_to);
  EXPECT_EQ(parsed->outcome.candidates_capped,
            original.outcome.candidates_capped);
  EXPECT_EQ(parsed->outcome.stopped_at_level,
            original.outcome.stopped_at_level);
  EXPECT_EQ(parsed->outcome.resumed_from_checkpoint,
            original.outcome.resumed_from_checkpoint);
  EXPECT_EQ(parsed->outcome.peak_memory_bytes,
            original.outcome.peak_memory_bytes);

  // The visible deliverable: the client re-renders the identical report.
  EXPECT_EQ(core::FormatResult(*parsed, parsed_names),
            core::FormatResult(original, names));
}

TEST(ServeProtocolTest, ParseResultRejectsMissingSections) {
  for (const char* json :
       {"{\"min_support\":1,\"average_error\":0,\"total_seconds\":0,"
        "\"total_evaluated\":0,\"levels\":[],\"outcome\":{"
        "\"termination\":\"completed\"}}",  // missing top_k
        "{\"min_support\":1,\"average_error\":0,\"total_seconds\":0,"
        "\"total_evaluated\":0,\"top_k\":[],\"levels\":[]}",  // no outcome
        "[1,2]"}) {
    auto value = obs::ParseJson(json);
    ASSERT_TRUE(value.ok()) << json;
    auto parsed = ParseResultJson(value.value(), nullptr);
    EXPECT_FALSE(parsed.ok()) << json;
  }
}

}  // namespace
}  // namespace sliceline::serve
