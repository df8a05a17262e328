// Outside input never crashes the wire decoders. A worker answers an
// eval_block whose slices leave the shard's column space, are empty or do
// not ascend, and a load_shard with a negative error, with an error and
// keeps serving; and a seeded mutation smoke
// feeds byte-mutated copies of every client and worker request type to
// ParseRequest and to a WorkerHandler holding a loaded shard, which must
// each return OK or a structured error. Labelled tier1, so the ASan preset
// runs it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dist/worker.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/worker_protocol.h"

namespace sliceline::serve {
namespace {

/// A 4-row shard with two binary features (one-hot columns 0..3), rows
/// (1,1) (1,2) (2,1) (2,2) and errors 0.5, 1, 2, 4.
WorkerRequest LoadShard() {
  WorkerRequest request;
  request.type = WorkerRequestType::kLoadShard;
  request.id = "load";
  request.dataset_hash = "7";
  request.shard = 0;
  LoadShardChunk& c = request.chunk;
  c.row_end = 4;
  c.cols = 2;
  c.codes = {1, 1, 1, 2, 2, 1, 2, 2};
  c.errors = {0.5, 1.0, 2.0, 4.0};
  c.fdom = {2, 2};
  return request;
}

/// LoadShard() with a negative error in row 1.
WorkerRequest BadErrorLoadShard() {
  WorkerRequest request = LoadShard();
  request.id = "bad-load";
  request.chunk.errors = {0.5, -1.0, 2.0, 4.0};
  return request;
}

WorkerRequest EvalBlock(std::vector<std::vector<int64_t>> slices) {
  WorkerRequest request;
  request.type = WorkerRequestType::kEvalBlock;
  request.id = "eval";
  request.dataset_hash = "7";
  request.shard = 0;
  for (const std::vector<int64_t>& columns : slices) {
    request.slices.Add(columns);
  }
  return request;
}

/// The handler's reply, checked to be one strict-JSON line with the ok or
/// the structured error shape.
obs::JsonValue Reply(dist::WorkerHandler* handler, const std::string& line) {
  const std::string reply = handler->HandleLine(line);
  EXPECT_FALSE(reply.empty());
  EXPECT_EQ(reply.back(), '\n');
  StatusOr<obs::JsonValue> root = obs::ParseJson(reply);
  EXPECT_TRUE(root.ok()) << reply;
  if (!root.ok()) return obs::JsonValue();
  const obs::JsonValue* ok = root->Find("ok");
  EXPECT_TRUE(ok != nullptr && ok->is_bool()) << reply;
  if (ok != nullptr && ok->is_bool() && !ok->bool_value()) {
    const obs::JsonValue* error = root->Find("error");
    EXPECT_TRUE(error != nullptr && error->RequireString("code").ok() &&
                error->RequireString("message").ok())
        << reply;
  }
  return std::move(root).value();
}

std::string Line(const WorkerRequest& request) {
  std::string line = SerializeWorkerRequest(request);
  line.pop_back();  // HandleLine takes the line without its LF
  return line;
}

TEST(WorkerHandlerTest, BadSlicesAreAnErrorAndTheShardStaysUsable) {
  dist::WorkerHandler handler;
  ASSERT_TRUE(Reply(&handler, Line(LoadShard())).GetBoolOr("loaded", false));

  for (const char* slices :
       {"[[100000]]", "[[-1]]", "[[0,4]]", "[[2,1]]", "[[1,1]]", "[[]]"}) {
    const obs::JsonValue reply = Reply(
        &handler,
        std::string("{\"type\":\"eval_block\",\"id\":\"bad\",\"dataset\":\"7\","
                    "\"shard\":0,\"slices\":") +
            slices + "}");
    EXPECT_FALSE(reply.GetBoolOr("ok", true)) << slices;
    const obs::JsonValue* error = reply.Find("error");
    ASSERT_NE(error, nullptr) << slices;
    EXPECT_EQ(error->GetStringOr("code", ""), "invalid_argument") << slices;
  }

  const obs::JsonValue reply = Reply(&handler, Line(EvalBlock({{0}, {1, 3}})));
  ASSERT_TRUE(reply.GetBoolOr("ok", false));
  uint64_t checksum = 0;
  StatusOr<core::ExactEvalResult> partial = ParseEvalPayload(reply, &checksum);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  const core::EvalResult stats = partial->Round();
  EXPECT_EQ(stats.sizes, (std::vector<double>{2, 1}));
  EXPECT_EQ(stats.error_sums, (std::vector<double>{1.5, 4.0}));
  EXPECT_EQ(stats.max_errors, (std::vector<double>{1.0, 4.0}));
}

TEST(WorkerHandlerTest, BadErrorsAreAnErrorAndTheWorkerStaysUsable) {
  dist::WorkerHandler handler;
  const obs::JsonValue bad = Reply(&handler, Line(BadErrorLoadShard()));
  EXPECT_FALSE(bad.GetBoolOr("ok", true));
  const obs::JsonValue* error = bad.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetStringOr("code", ""), "invalid_argument");
  EXPECT_NE(error->GetStringOr("message", "").find("row 1"),
            std::string::npos);

  ASSERT_TRUE(Reply(&handler, Line(LoadShard())).GetBoolOr("loaded", false));
  const obs::JsonValue reply = Reply(&handler, Line(EvalBlock({{0}})));
  ASSERT_TRUE(reply.GetBoolOr("ok", false));
  uint64_t checksum = 0;
  StatusOr<core::ExactEvalResult> partial = ParseEvalPayload(reply, &checksum);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->Round().error_sums, (std::vector<double>{1.5}));
}

/// One request line of every client request type.
std::vector<std::string> ClientSeeds() {
  std::vector<std::string> seeds;
  Request request;
  request.id = "c1";
  request.type = RequestType::kRegisterDataset;
  request.register_dataset = {"d", "d.csv", "y", "class", 5, {"a", "b"}};
  seeds.push_back(SerializeRequest(request));
  request.type = RequestType::kFindSlices;
  request.find_slices.dataset = "d";
  request.find_slices.sigma = 8;
  request.find_slices.max_level = 2;
  seeds.push_back(SerializeRequest(request));
  request.type = RequestType::kAppendRows;
  request.append_rows = {"d", "x1", 0, 2, {{"a", "1.5"}, {"b", ""}}, {0.5, 2}};
  seeds.push_back(SerializeRequest(request));
  request.type = RequestType::kWatchDataset;
  request.watch.dataset = "d";
  request.watch.window_rows = 100;
  seeds.push_back(SerializeRequest(request));
  request.dataset = "d";
  for (RequestType type :
       {RequestType::kUnwatchDataset, RequestType::kUnregisterDataset,
        RequestType::kGetStatus}) {
    request.type = type;
    seeds.push_back(SerializeRequest(request));
  }
  request.dataset.clear();
  request.job_id = 12;
  for (RequestType type :
       {RequestType::kGetStatus, RequestType::kCancel, RequestType::kGetReport,
        RequestType::kGetTrace, RequestType::kListDatasets,
        RequestType::kServerStats}) {
    request.type = type;
    seeds.push_back(SerializeRequest(request));
  }
  return seeds;
}

/// One request line of every worker request type, addressed to the shard
/// LoadShard() loads, and BadErrorLoadShard(), which must fail.
std::vector<std::string> WorkerSeeds() {
  std::vector<std::string> seeds;
  WorkerRequest request;
  request.id = "w1";
  request.trace_id = 99;
  request.parent_span_id = 5;
  for (WorkerRequestType type :
       {WorkerRequestType::kEnlist, WorkerRequestType::kHeartbeat,
        WorkerRequestType::kGetSpans, WorkerRequestType::kShutdown}) {
    request.type = type;
    seeds.push_back(Line(request));
  }
  request.dataset_hash = "7";
  request.shard = 0;
  for (WorkerRequestType type :
       {WorkerRequestType::kHasShard, WorkerRequestType::kBasicStats}) {
    request.type = type;
    seeds.push_back(Line(request));
  }
  seeds.push_back(Line(LoadShard()));
  seeds.push_back(Line(BadErrorLoadShard()));
  WorkerRequest eval = EvalBlock({{0}, {1, 3}, {0, 2}});
  eval.strategy = core::SliceLineConfig::EvalStrategy::kScanBlock;
  eval.block_size = 2;
  seeds.push_back(Line(eval));
  return seeds;
}

/// `seed` after one to four byte mutations: flip a bit, delete a byte,
/// insert a byte (mostly JSON punctuation and digits), or truncate.
std::string Mutate(const std::string& seed, Rng* rng) {
  static const std::string kInsert = "0123456789-+.eE\"\\,:[]{}ntf \x01\xff";
  std::string line = seed;
  const int64_t mutations = rng->NextInt(1, 4);
  for (int64_t m = 0; m < mutations && !line.empty(); ++m) {
    const size_t at = rng->NextUint64(line.size());
    switch (rng->NextUint64(4)) {
      case 0:
        line[at] = static_cast<char>(line[at] ^ (1 << rng->NextUint64(8)));
        break;
      case 1:
        line.erase(at, 1);
        break;
      case 2:
        line.insert(at, 1, kInsert[rng->NextUint64(kInsert.size())]);
        break;
      default:
        line.resize(at);
        break;
    }
  }
  return line;
}

TEST(WireMutationTest, MutatedRequestsGetOkOrAStructuredError) {
  constexpr int kMutantsPerSeed = 500;
  Rng rng(2718);

  for (const std::string& seed : ClientSeeds()) {
    ASSERT_TRUE(ParseRequest(seed).ok()) << seed;
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string line = Mutate(seed, &rng);
      StatusOr<Request> parsed = ParseRequest(line);
      if (!parsed.ok()) {
        EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
            << line;
      }
    }
  }

  dist::WorkerHandler handler;
  const std::string load = Line(LoadShard());
  const std::string bad_load = Line(BadErrorLoadShard());
  ASSERT_TRUE(Reply(&handler, load).GetBoolOr("loaded", false));
  int evaluated = 0;  // mutated eval_blocks answered ok: the shard was used
  for (const std::string& seed : WorkerSeeds()) {
    ASSERT_EQ(Reply(&handler, seed).GetBoolOr("ok", false), seed != bad_load)
        << seed;
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string line = Mutate(seed, &rng);
      const obs::JsonValue reply = Reply(&handler, line);
      if (seed.find("\"eval_block\"") != std::string::npos &&
          reply.GetBoolOr("ok", false)) {
        ++evaluated;
      }
      // A mutated load_shard may have dropped or replaced the shard; reload
      // it.
      if (seed == load || seed == bad_load) {
        ASSERT_TRUE(Reply(&handler, load).GetBoolOr("loaded", false));
      }
    }
  }
  EXPECT_GT(evaluated, 0);
  // The trace ids in the worker seeds switched recording on.
  obs::TraceRecorder::Default()->SetEnabled(false);
  obs::SetMetricsEnabled(false);
}

}  // namespace
}  // namespace sliceline::serve
