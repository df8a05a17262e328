// Wire-protocol edge cases for the newline-delimited strict-JSON protocol:
// abrupt peer disconnects mid-request, oversized-line rejection, fragmented
// frame reads, malformed-but-length-valid JSON, and the client's bounded
// retry behavior against a flaky peer, exact partials whose declared
// digit counts or values lie, and search parameters outside the engine's
// int range. These drive the server over raw sockets (no Client) wherever
// the client would hide the framing.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/socket.h"
#include "core/sliceline.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "obs/json_parse.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve_test_util.h"

namespace sliceline::serve {
namespace {

ServerOptions UnixOptions(const std::string& socket_name) {
  ServerOptions options;
  options.unix_socket = ::testing::TempDir() + "/" +
                        std::to_string(::getpid()) + "_" + socket_name;
  return options;
}

/// Starts a server on a fresh Unix socket; shuts it down when destroyed.
struct ServerGuard {
  explicit ServerGuard(ServerOptions options) : server(options) {
    const Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~ServerGuard() {
    server.RequestShutdown();
    EXPECT_EQ(server.Wait(), 0);
  }
  Server server;
};

StatusOr<SocketConnection> RawConnect(const ServerOptions& options) {
  return ConnectUnix(options.unix_socket, /*timeout_ms=*/2000);
}

TEST(WireEdgeTest, AbruptDisconnectMidRequestLeavesServerServing) {
  ServerOptions options = UnixOptions("wire_abrupt.sock");
  ServerGuard guard(options);

  // Half a request, no newline, then hang up.
  {
    auto conn = RawConnect(options);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    ASSERT_TRUE(conn->WriteAll(R"({"id":"x","type":"serv)").ok());
  }  // destructor closes mid-frame

  // The server must shrug that off and keep serving new connections.
  auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto stats = client->ServerStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
}

TEST(WireEdgeTest, OversizedLineGetsStructuredErrorAndDrop) {
  ServerOptions options = UnixOptions("wire_oversized.sock");
  ServerGuard guard(options);

  auto conn = RawConnect(options);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  // One byte past the guard. The payload never parses, so junk is fine.
  std::string line(kMaxLineBytes + 1, 'a');
  line.push_back('\n');
  ASSERT_TRUE(conn->WriteAll(line).ok());

  auto response = conn->ReadLine(kMaxLineBytes, /*timeout_ms=*/5000);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto parsed = obs::ParseJson(response.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed->GetBoolOr("ok", true));
  const obs::JsonValue* error = parsed->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetStringOr("code", ""), "resource_exhausted");

  // The stream is desynchronized: the server drops the connection.
  auto next = conn->ReadLine(kMaxLineBytes, /*timeout_ms=*/5000);
  EXPECT_FALSE(next.ok());
}

TEST(WireEdgeTest, FragmentedFramesReassembleIntoOneRequest) {
  ServerOptions options = UnixOptions("wire_fragmented.sock");
  ServerGuard guard(options);

  auto conn = RawConnect(options);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  const std::string request = R"({"id":"f1","type":"server_stats"})"
                              "\n";
  // Dribble the request one byte at a time with real pauses: the server's
  // ReadLine must buffer partial frames across reads.
  for (char ch : request) {
    ASSERT_TRUE(conn->WriteAll(std::string(1, ch)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto response = conn->ReadLine(kMaxLineBytes, /*timeout_ms=*/5000);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto parsed = obs::ParseJson(response.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetStringOr("id", ""), "f1");
  EXPECT_TRUE(parsed->GetBoolOr("ok", false));
}

TEST(WireEdgeTest, MalformedJsonGetsStructuredErrorNotDisconnect) {
  ServerOptions options = UnixOptions("wire_malformed.sock");
  ServerGuard guard(options);

  auto conn = RawConnect(options);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  // Length-valid but not strict JSON: trailing comma plus a lone brace.
  ASSERT_TRUE(conn->WriteAll("{\"id\":\"m1\",}\n").ok());
  auto response = conn->ReadLine(kMaxLineBytes, /*timeout_ms=*/5000);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto parsed = obs::ParseJson(response.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed->GetBoolOr("ok", true));
  const obs::JsonValue* error = parsed->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetStringOr("code", ""), "invalid_argument");

  // The frame boundary survived, so the connection is still usable.
  ASSERT_TRUE(
      conn->WriteAll("{\"id\":\"m2\",\"type\":\"server_stats\"}\n").ok());
  auto next = conn->ReadLine(kMaxLineBytes, /*timeout_ms=*/5000);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  auto next_parsed = obs::ParseJson(next.value());
  ASSERT_TRUE(next_parsed.ok());
  EXPECT_TRUE(next_parsed->GetBoolOr("ok", false));
}

TEST(WireEdgeTest, ClientRetriesIdempotentRequestAfterPeerHangup) {
  // A hand-rolled flaky peer: hangs up on the first connection before
  // answering, serves the second one normally.
  auto listener = ListenSocket::ListenTcp(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const int port = listener->bound_port();
  std::thread peer([&listener] {
    {
      auto first = listener->Accept(5000);
      ASSERT_TRUE(first.ok());
      auto line = first->ReadLine(kMaxLineBytes, 5000);
      ASSERT_TRUE(line.ok());
      first->Close();  // hangup after the request hit the wire
    }
    auto second = listener->Accept(5000);
    ASSERT_TRUE(second.ok());
    auto line = second->ReadLine(kMaxLineBytes, 5000);
    ASSERT_TRUE(line.ok());
    ASSERT_TRUE(
        second->WriteLine("{\"id\":\"c1\",\"ok\":true}\n", kMaxLineBytes)
            .ok());
  });

  ClientOptions client_options;
  client_options.max_retries = 2;
  client_options.backoff_base_seconds = 0.01;
  auto client = Client::Connect(Endpoint::Tcp(port), client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto stats = client->ServerStats();  // idempotent: retried after hangup
  peer.join();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(client->retries(), 1);
}

TEST(WireEdgeTest, ClientDoesNotRetryFindSlicesAfterWrite) {
  // The peer hangs up after reading the find_slices request; the client
  // must surface the failure instead of resending a non-idempotent job.
  auto listener = ListenSocket::ListenTcp(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const int port = listener->bound_port();
  std::thread peer([&listener] {
    auto first = listener->Accept(5000);
    ASSERT_TRUE(first.ok());
    auto line = first->ReadLine(kMaxLineBytes, 5000);
    ASSERT_TRUE(line.ok());
    first->Close();
    // A retry would show up as a second connection; fail the test if so.
    auto second = listener->Accept(500);
    EXPECT_FALSE(second.ok()) << "non-idempotent request was resent";
  });

  ClientOptions client_options;
  client_options.max_retries = 3;
  client_options.backoff_base_seconds = 0.01;
  auto client = Client::Connect(Endpoint::Tcp(port), client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  FindSlicesRequest find;
  find.dataset = "whatever";
  auto reply = client->FindSlices(find);
  peer.join();
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(client->retries(), 0);
}

/// A socket worker serving a real WorkerHandler whose first two replies of
/// one type lie about their first exact sum. kDigitCounts (eval_block): one
/// declares a digit more than it ships (truncated), the next declares far
/// more than any sum can have (oversized). kHugeSums (basic_stats): the sum
/// becomes 2^1056, which decodes but rounds to +inf, above size * max.
/// Later replies pass through unchanged.
class LyingWorker {
 public:
  enum class Lie { kDigitCounts, kHugeSums };

  explicit LyingWorker(Lie lie) : lie_(lie) {
    auto listener = ListenSocket::ListenTcp(0);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = std::move(listener).value();
    thread_ = std::thread([this] { Serve(); });
  }
  ~LyingWorker() {
    stop_ = true;
    thread_.join();
  }
  int port() const { return listener_.bound_port(); }
  int lies() const { return lies_; }

 private:
  void Serve() {
    while (!stop_) {
      StatusOr<SocketConnection> conn = listener_.Accept(50);
      if (!conn.ok()) continue;
      while (!stop_) {
        StatusOr<bool> readable = conn->WaitReadable(50);
        if (!readable.ok()) break;
        if (!readable.value()) continue;
        StatusOr<std::string> line = conn->ReadLine(kWorkerMaxLineBytes);
        if (!line.ok()) break;
        std::string reply = handler_.HandleLine(line.value());
        const char* type = lie_ == Lie::kDigitCounts
                               ? "\"type\":\"eval_block\""
                               : "\"type\":\"basic_stats\"";
        if (line->find(type) != std::string::npos && lies_ < 2) {
          if (lie_ == Lie::kDigitCounts) {
            LieAboutDigitCount(&reply);
          } else {
            LieAboutValue(&reply);
          }
        }
        if (!conn->WriteLine(reply, kWorkerMaxLineBytes).ok()) break;
      }
    }
  }

  /// Rewrites the digit count of the reply's first exact sum.
  void LieAboutDigitCount(std::string* reply) {
    const std::string key = "\"error_sums\":[[";
    const size_t anchor = reply->find(key);
    if (anchor == std::string::npos) return;
    const size_t count = reply->find(',', anchor + key.size()) + 1;
    const size_t end = reply->find_first_of(",]", count);
    const int64_t declared = std::stoll(reply->substr(count, end - count));
    const int64_t lie = lies_ == 0 ? declared + 1 : int64_t{1} << 40;
    reply->replace(count, end - count, std::to_string(lie));
    ++lies_;
  }

  /// Replaces the first column sum with 2^1056.
  void LieAboutValue(std::string* reply) {
    const std::string key = "\"error_sums\":[[";
    const size_t begin = reply->find(key);
    if (begin == std::string::npos) return;
    const size_t digits = begin + key.size();
    reply->replace(digits, reply->find(']', digits) - digits, "1056,1,1");
    ++lies_;
  }

  const Lie lie_;
  ListenSocket listener_;
  dist::WorkerHandler handler_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<int> lies_{0};
};

/// Runs SliceLine on a two-worker socket fleet, one of them `liar`, and
/// checks that both lies were counted as corrupted partials and that the
/// result still equals the single-node run.
void ExpectLiesAreCorruptedPartials(LyingWorker* liar) {
  Rng rng(3);
  data::IntMatrix x0(300, 3);
  std::vector<double> errors(300);
  for (int64_t i = 0; i < x0.rows(); ++i) {
    for (int64_t j = 0; j < x0.cols(); ++j) {
      x0.At(i, j) = static_cast<int32_t>(rng.NextUint64(3)) + 1;
    }
    errors[static_cast<size_t>(i)] = rng.NextDouble();
  }
  core::SliceLineConfig config;
  config.min_support = 10;
  auto local = core::RunSliceLine(x0, errors, config);
  ASSERT_TRUE(local.ok());

  dist::Worker honest(dist::WorkerOptions{});
  ASSERT_TRUE(honest.Start().ok());
  dist::DistOptions options;
  options.endpoints = {dist::WorkerEndpoint{"", liar->port()},
                       dist::WorkerEndpoint{"", honest.tcp_port()}};
  options.straggler_after_ms = 60000;
  options.backoff_base_seconds = 0.001;
  dist::DistFaultStats faults;
  auto remote = dist::RunSliceLineDistributed(x0, errors, config, options,
                                              nullptr, &faults);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(liar->lies(), 2);
  EXPECT_EQ(faults.corrupted_partials, 2);
  EXPECT_FALSE(faults.fallback_local);
  ASSERT_EQ(remote->top_k.size(), local->top_k.size());
  for (size_t i = 0; i < remote->top_k.size(); ++i) {
    EXPECT_EQ(remote->top_k[i].predicates, local->top_k[i].predicates);
    EXPECT_EQ(remote->top_k[i].stats.error_sum,
              local->top_k[i].stats.error_sum);
  }
  honest.RequestShutdown();
  honest.Wait();
}

TEST(WireEdgeTest, TruncatedOrOversizedExactPartialIsACorruptedPartial) {
  LyingWorker liar(LyingWorker::Lie::kDigitCounts);
  ExpectLiesAreCorruptedPartials(&liar);
}

TEST(WireEdgeTest, BasicStatsSumAboveSizeTimesMaxIsACorruptedPartial) {
  LyingWorker liar(LyingWorker::Lie::kHugeSums);
  ExpectLiesAreCorruptedPartials(&liar);
}

/// A server with a small registered dataset `name`, for the parameter
/// range cases below.
struct DatasetServer {
  explicit DatasetServer(const std::string& socket_name)
      : options(UnixOptions(socket_name)), guard(options) {
    const std::string path = ::testing::TempDir() + "/" +
                             std::to_string(::getpid()) + "_" +
                             socket_name + ".csv";
    WriteFileOrDie(path, MakeCsvText(200, 3, 3, 51));
    auto connected = Client::Connect(Endpoint::Unix(options.unix_socket));
    EXPECT_TRUE(connected.ok()) << connected.status().ToString();
    client = std::make_unique<Client>(std::move(connected).value());
    RegisterDatasetRequest reg;
    reg.name = "ranged";
    reg.csv_path = path;
    reg.label = "target";
    const auto registered = client->RegisterDataset(reg);
    EXPECT_TRUE(registered.ok()) << registered.status().ToString();
  }
  ServerOptions options;
  ServerGuard guard;
  std::unique_ptr<Client> client;
};

constexpr int64_t kAboveInt = (int64_t{1} << 32) + 4;

TEST(WireEdgeTest, HugeKRunsWithoutPreallocatingTheTopK) {
  DatasetServer server("wire_huge_k.sock");
  FindSlicesRequest find;
  find.dataset = "ranged";
  find.k = 1000000000;
  auto reply = server.client->FindSlices(find);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->result.top_k.empty());
  find.k = std::numeric_limits<int>::max();
  ASSERT_TRUE(server.client->FindSlices(find).ok());
}

TEST(WireEdgeTest, FindRejectsKAndMaxLevelAboveIntRange) {
  DatasetServer server("wire_find_range.sock");
  FindSlicesRequest find;
  find.dataset = "ranged";
  // 2^32 + 4 would otherwise narrow to k = 4 and run (and cache) as such.
  find.k = kAboveInt;
  auto wide_k = server.client->FindSlices(find);
  ASSERT_FALSE(wide_k.ok());
  EXPECT_EQ(wide_k.status().code(), StatusCode::kInvalidArgument);
  find.k = 4;
  find.max_level = kAboveInt;
  auto wide_level = server.client->FindSlices(find);
  ASSERT_FALSE(wide_level.ok());
  EXPECT_EQ(wide_level.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireEdgeTest, WatchRangeChecksMatchFind) {
  DatasetServer server("wire_watch_range.sock");
  auto expect_rejected = [&](const WatchRequest& watch, const char* what) {
    auto reply = server.client->Watch(watch);
    ASSERT_FALSE(reply.ok()) << what;
    EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument) << what;
  };
  WatchRequest watch;
  watch.dataset = "ranged";
  WatchRequest wide_k = watch;
  wide_k.k = kAboveInt;
  expect_rejected(wide_k, "k above int range");
  WatchRequest wide_level = watch;
  wide_level.max_level = kAboveInt;
  expect_rejected(wide_level, "max_level above int range");
  WatchRequest negative_sigma = watch;
  negative_sigma.sigma = -1;
  expect_rejected(negative_sigma, "negative sigma");
  WatchRequest negative_level = watch;
  negative_level.max_level = -1;
  expect_rejected(negative_level, "negative max_level");
  EXPECT_EQ(server.guard.server.watch_count(), 0);
  ASSERT_TRUE(server.client->Watch(watch).ok());
}

}  // namespace
}  // namespace sliceline::serve
