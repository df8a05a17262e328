// In-process daemon integration tests: protocol round trips over Unix and
// TCP sockets, result fidelity against direct single-threaded engine runs,
// caching, structured admission rejections under load, concurrent mixed
// register/find/cancel traffic (a TSan target), the /metrics endpoint, and
// graceful drain.
#include "serve/server.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sliceline.h"
#include "obs/json_parse.h"
#include "obs/json_validate.h"
#include "obs/metrics.h"
#include "obs/prometheus_validate.h"
#include "serve/client.h"
#include "serve_test_util.h"

namespace sliceline::serve {
namespace {

struct TestCsv {
  std::string name;
  std::string path;
  std::string text;
};

/// Writes (once) and describes the CSV fixtures shared by every test in
/// this file. Rebuilding the text is deterministic, so all tests agree on
/// content hashes. Paths carry the pid: ctest runs each case as its own
/// process, and parallel processes truncating/rewriting one shared file
/// let a concurrent reader see it half-written.
const TestCsv& CsvA() {
  static const TestCsv* csv = [] {
    auto* c = new TestCsv;
    c->name = "alpha";
    c->path = ::testing::TempDir() + "/serve_server_alpha_" +
              std::to_string(::getpid()) + ".csv";
    c->text = MakeCsvText(800, 4, 3, 21);
    WriteFileOrDie(c->path, c->text);
    return c;
  }();
  return *csv;
}

const TestCsv& CsvB() {
  static const TestCsv* csv = [] {
    auto* c = new TestCsv;
    c->name = "beta";
    c->path = ::testing::TempDir() + "/serve_server_beta_" +
              std::to_string(::getpid()) + ".csv";
    c->text = MakeCsvText(700, 4, 3, 22);
    WriteFileOrDie(c->path, c->text);
    return c;
  }();
  return *csv;
}

core::SliceLineConfig ConfigVariant(int variant) {
  core::SliceLineConfig config;
  if (variant % 2 == 0) {
    config.k = 4;
    config.alpha = 0.95;
  } else {
    config.k = 3;
    config.alpha = 0.9;
    config.min_support = 40;
  }
  return config;
}

FindSlicesRequest FindVariant(const std::string& dataset, int variant) {
  FindSlicesRequest find;
  find.dataset = dataset;
  find.k = ConfigVariant(variant).k;
  find.alpha = ConfigVariant(variant).alpha;
  find.sigma = ConfigVariant(variant).min_support;
  return find;
}

/// The single-threaded reference: same pipeline the registry runs, same
/// engine call the scheduler makes, no server in between.
core::SliceLineResult DirectResult(const TestCsv& csv, int variant,
                                   std::vector<std::string>* names) {
  auto dataset = BuildRegisteredDataset(csv.name, csv.text);
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  auto result =
      core::RunSliceLine(dataset.value()->dataset, ConfigVariant(variant));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (names != nullptr) *names = dataset.value()->dataset.feature_names;
  return result.value();
}

RegisterDatasetRequest RegisterRequestFor(const TestCsv& csv) {
  RegisterDatasetRequest request;
  request.name = csv.name;
  request.csv_path = csv.path;
  request.label = "target";
  return request;
}

/// Starts a server on a fresh Unix socket; shuts it down (and checks the
/// drain exits cleanly) when destroyed.
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

ServerOptions UnixOptions(const std::string& socket_name) {
  ServerOptions options;
  options.unix_socket = ::testing::TempDir() + "/" +
                        std::to_string(::getpid()) + "_" + socket_name;
  return options;
}

TEST(ServeServerTest, RoundTripOverUnixSocketMatchesDirectRunAndCaches) {
  ServerOptions options = UnixOptions("serve_roundtrip.sock");
  options.workers = 2;
  ServerGuard guard(options);

  auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto registered = client->RegisterDataset(RegisterRequestFor(CsvA()));
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  EXPECT_EQ(registered->GetIntOr("n", 0), 800);
  EXPECT_FALSE(registered->GetBoolOr("already_registered", true));

  auto first = client->FindSlices(FindVariant(CsvA().name, 0));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  EXPECT_GE(first->job_id, 1);

  std::vector<std::string> names;
  const core::SliceLineResult expected = DirectResult(CsvA(), 0, &names);
  EXPECT_EQ(first->feature_names, names);
  ExpectSameResult(first->result, expected, names);

  // Identical parameters -> served from the result cache, bit-identical.
  auto second = client->FindSlices(FindVariant(CsvA().name, 0));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->cache_hit);
  ExpectSameResult(second->result, expected, names);
  EXPECT_EQ(guard.server.cache().hits(), 1);

  // Different parameters miss the cache and still match the reference.
  auto third = client->FindSlices(FindVariant(CsvA().name, 1));
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->cache_hit);
  ExpectSameResult(third->result, DirectResult(CsvA(), 1, nullptr), names);
}

TEST(ServeServerTest, TcpListenerServesTheSameProtocol) {
  ServerOptions options;
  options.tcp_port = 0;  // kernel-assigned
  ServerGuard guard(options);
  ASSERT_GT(guard.server.tcp_port(), 0);

  auto client = Client::Connect(Endpoint::Tcp(guard.server.tcp_port()));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->RegisterDataset(RegisterRequestFor(CsvB())).ok());
  auto reply = client->FindSlices(FindVariant(CsvB().name, 0));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  std::vector<std::string> names;
  ExpectSameResult(reply->result, DirectResult(CsvB(), 0, &names), names);

  auto stats = client->ServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->GetIntOr("protocol_version", 0), kProtocolVersion);
  EXPECT_EQ(stats->Find("jobs")->GetIntOr("completed", -1), 1);
}

TEST(ServeServerTest, StructuredErrorsForBadRequests) {
  ServerOptions options = UnixOptions("serve_errors.sock");
  ServerGuard guard(options);
  auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
  ASSERT_TRUE(client.ok());

  auto unknown = client->FindSlices(FindVariant("no_such_dataset", 0));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  FindSlicesRequest bad_engine = FindVariant("x", 0);
  bad_engine.engine = "gpu";
  auto engine_error = client->FindSlices(bad_engine);
  ASSERT_FALSE(engine_error.ok());
  EXPECT_EQ(engine_error.status().code(), StatusCode::kInvalidArgument);

  auto bad_status = client->GetStatus(424242);
  ASSERT_FALSE(bad_status.ok());
  EXPECT_EQ(bad_status.status().code(), StatusCode::kNotFound);

  // The connection survives structured errors: a good request still works.
  ASSERT_TRUE(client->ServerStats().ok());

  // A raw malformed line gets invalid_argument, not a dropped connection.
  auto raw = ConnectUnix(options.unix_socket);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->WriteAll("this is not json\n").ok());
  auto line = raw->ReadLine(kMaxLineBytes);
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  auto parsed = obs::ParseJson(line.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->GetBoolOr("ok", true));
  EXPECT_EQ(parsed->Find("error")->GetStringOr("code", ""),
            "invalid_argument");
}

TEST(ServeServerTest, OverlongLineGetsErrorThenDisconnect) {
  ServerOptions options = UnixOptions("serve_overlong.sock");
  ServerGuard guard(options);
  auto raw = ConnectUnix(options.unix_socket);
  ASSERT_TRUE(raw.ok());
  const std::string huge(kMaxLineBytes + 16, 'a');
  ASSERT_TRUE(raw->WriteAll(huge + "\n").ok());
  auto line = raw->ReadLine(kMaxLineBytes);
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  auto parsed = obs::ParseJson(line.value());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("error")->GetStringOr("code", ""),
            "resource_exhausted");
}

TEST(ServeServerTest, AsyncSubmissionStatusPollingAndCancel) {
  ServerOptions options = UnixOptions("serve_async.sock");
  options.workers = 1;
  ServerGuard guard(options);
  auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->RegisterDataset(RegisterRequestFor(CsvA())).ok());

  FindSlicesRequest find = FindVariant(CsvA().name, 0);
  find.wait = false;
  auto submitted = client->FindSlices(find);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  const int64_t job_id = submitted->job_id;
  ASSERT_GE(job_id, 1);

  // Poll get_status until terminal, then check the carried result.
  obs::JsonValue status;
  for (;;) {
    auto response = client->GetStatus(job_id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    status = std::move(response).value();
    const std::string state = status.GetStringOr("state", "");
    if (state == "done" || state == "failed" || state == "cancelled") {
      ASSERT_EQ(state, "done");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const obs::JsonValue* result = status.Find("result");
  ASSERT_NE(result, nullptr);
  std::vector<std::string> names;
  auto parsed = ParseResultJson(*result, &names);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectSameResult(parsed.value(), DirectResult(CsvA(), 0, &names), names);

  // Cancelling a finished job reports its terminal state.
  auto cancel = client->Cancel(job_id);
  ASSERT_TRUE(cancel.ok());
  EXPECT_EQ(cancel->GetStringOr("state", ""), "done");
}

// Acceptance-criteria test: >= 8 simultaneous clients driving mixed
// register / find (sync and async) / cancel traffic. Every find_slices
// response must equal the single-threaded reference result; admission or
// validation problems must surface as structured errors, never dropped
// connections.
TEST(ServeServerTest, EightConcurrentClientsMixedTraffic) {
  ServerOptions options = UnixOptions("serve_mixed.sock");
  options.workers = 4;
  options.max_queue = 64;
  ServerGuard guard(options);

  // Reference results computed once, single-threaded, before any traffic.
  std::vector<std::string> names_a, names_b;
  const core::SliceLineResult expected_a0 = DirectResult(CsvA(), 0, &names_a);
  const core::SliceLineResult expected_a1 = DirectResult(CsvA(), 1, nullptr);
  const core::SliceLineResult expected_b0 = DirectResult(CsvB(), 0, &names_b);
  const core::SliceLineResult expected_b1 = DirectResult(CsvB(), 1, nullptr);

  constexpr int kClients = 10;
  std::atomic<bool> go{false};
  std::atomic<int> find_responses{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();

      const TestCsv& csv = t % 2 == 0 ? CsvA() : CsvB();
      const int variant = (t / 2) % 2;
      const core::SliceLineResult& expected =
          t % 2 == 0 ? (variant == 0 ? expected_a0 : expected_a1)
                     : (variant == 0 ? expected_b0 : expected_b1);
      const std::vector<std::string>& names =
          t % 2 == 0 ? names_a : names_b;

      // Concurrent registration of the same name is idempotent: everyone
      // gets an ok with the same content hash.
      auto registered = client->RegisterDataset(RegisterRequestFor(csv));
      ASSERT_TRUE(registered.ok()) << registered.status().ToString();

      // Synchronous find: the response must equal the reference bit for
      // bit, whether it was computed, raced, or cache-served.
      auto reply = client->FindSlices(FindVariant(csv.name, variant));
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      ExpectSameResult(reply->result, expected, names);
      find_responses.fetch_add(1, std::memory_order_relaxed);

      if (t % 3 == 0) {
        // Async submission + cancel: any structured answer is fine (the
        // job may be queued, running, done, or cancelled by now), but the
        // protocol must answer, and status must stay queryable.
        FindSlicesRequest async_find = FindVariant(csv.name, variant);
        async_find.wait = false;
        auto submitted = client->FindSlices(async_find);
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        auto cancel = client->Cancel(submitted->job_id);
        ASSERT_TRUE(cancel.ok()) << cancel.status().ToString();
        auto status = client->GetStatus(submitted->job_id);
        ASSERT_TRUE(status.ok()) << status.status().ToString();
      } else {
        // Cancel of a bogus job: structured not_found, connection intact.
        auto cancel = client->Cancel(777000 + t);
        ASSERT_FALSE(cancel.ok());
        EXPECT_EQ(cancel.status().code(), StatusCode::kNotFound);
      }
      ASSERT_TRUE(client->ServerStats().ok());
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(find_responses.load(), kClients);

  // Drain any cancelled-async leftovers, then check the books.
  guard.server.scheduler().DrainAndStop();
  EXPECT_EQ(guard.server.registry().size(), 2);
  EXPECT_EQ(guard.server.scheduler().jobs_failed(), 0);
  EXPECT_GE(guard.server.scheduler().jobs_admitted(), 1);
}

// Admission control under a thundering herd: workers=1, max_queue=1, no
// cache. Every client either gets a correct result or a structured
// resource_exhausted rejection -- never a dropped connection.
TEST(ServeServerTest, AdmissionRejectionsAreStructuredErrors) {
  ServerOptions options = UnixOptions("serve_admission.sock");
  options.workers = 1;
  options.max_queue = 1;
  options.cache_capacity = 0;  // every find must go through admission
  ServerGuard guard(options);

  {
    auto setup = Client::Connect(Endpoint::Unix(options.unix_socket));
    ASSERT_TRUE(setup.ok());
    ASSERT_TRUE(setup->RegisterDataset(RegisterRequestFor(CsvA())).ok());
  }

  std::vector<std::string> names;
  const core::SliceLineResult expected = DirectResult(CsvA(), 0, &names);

  constexpr int kClients = 8;
  std::atomic<bool> go{false};
  std::atomic<int> successes{0};
  std::atomic<int> rejections{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      auto reply = client->FindSlices(FindVariant(CsvA().name, 0));
      if (reply.ok()) {
        ExpectSameResult(reply->result, expected, names);
        successes.fetch_add(1, std::memory_order_relaxed);
      } else {
        // The one acceptable failure is the structured admission error.
        EXPECT_EQ(reply.status().code(), StatusCode::kResourceExhausted)
            << reply.status().ToString();
        rejections.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(successes.load() + rejections.load(), kClients);
  EXPECT_GE(successes.load(), 1);
  EXPECT_GE(rejections.load(), 1);
  EXPECT_EQ(guard.server.scheduler().jobs_rejected(), rejections.load());
}

TEST(ServeServerTest, MetricsEndpointServesValidPrometheusText) {
  ServerOptions options = UnixOptions("serve_metrics.sock");
  ServerGuard guard(options);
  {
    auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->RegisterDataset(RegisterRequestFor(CsvB())).ok());
    ASSERT_TRUE(client->FindSlices(FindVariant(CsvB().name, 0)).ok());
    ASSERT_TRUE(client->FindSlices(FindVariant(CsvB().name, 0)).ok());
  }
  auto metrics = FetchMetrics(Endpoint::Unix(options.unix_socket));
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const std::string& text = metrics.value();
  EXPECT_TRUE(obs::ValidatePrometheusText(text).empty())
      << obs::ValidatePrometheusText(text);
  // The acceptance-criteria series: scheduler queue depth, cache hit/miss,
  // and the per-request latency histogram.
  for (const char* series :
       {"sliceline_serve_queue_depth", "sliceline_serve_cache_hits",
        "sliceline_serve_cache_misses", "sliceline_serve_request_seconds",
        "sliceline_serve_jobs_admitted"}) {
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
}

/// Raw HTTP/1.0 GET over the server's Unix listener; returns the full
/// response (status line + headers + body).
std::string HttpGet(const std::string& socket_path, const std::string& path) {
  auto connection = ConnectUnix(socket_path, /*timeout_ms=*/5000);
  EXPECT_TRUE(connection.ok()) << connection.status().ToString();
  if (!connection.ok()) return "";
  EXPECT_TRUE(
      connection->WriteAll("GET " + path + " HTTP/1.0\r\n\r\n").ok());
  auto response = connection->ReadAll(1 << 20);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response.ok() ? response.value() : "";
}

TEST(ServeServerTest, HealthAndReadinessEndpoints) {
  ServerOptions options = UnixOptions("serve_health.sock");
  ServerGuard guard(options);

  const std::string healthz = HttpGet(options.unix_socket, "/healthz");
  EXPECT_EQ(healthz.rfind("HTTP/1.0 200", 0), 0u) << healthz;
  EXPECT_NE(healthz.find("ok"), std::string::npos) << healthz;

  const std::string readyz = HttpGet(options.unix_socket, "/readyz");
  EXPECT_EQ(readyz.rfind("HTTP/1.0 200", 0), 0u) << readyz;
  EXPECT_NE(readyz.find("ready"), std::string::npos) << readyz;

  const std::string other = HttpGet(options.unix_socket, "/nonsense");
  EXPECT_EQ(other.rfind("HTTP/1.0 404", 0), 0u) << other;
}

TEST(ServeServerTest, ReportAndTraceServeFinishedJobs) {
  ServerOptions options = UnixOptions("serve_report.sock");
  ServerGuard guard(options);
  auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->RegisterDataset(RegisterRequestFor(CsvB())).ok());
  auto reply = client->FindSlices(FindVariant(CsvB().name, 1));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const int64_t job_id = reply->job_id;

  auto report = client->GetReport(job_id);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(obs::ValidateStrictJson(report.value()).empty())
      << obs::ValidateStrictJson(report.value());
  // The persisted RunReport carries the job identity, the serve_job timing
  // section, and the distributed-trace summary section.
  EXPECT_NE(report->find("\"serve_job\""), std::string::npos);
  EXPECT_NE(report->find("\"dist_trace\""), std::string::npos);
  EXPECT_NE(report->find("\"trace_id\""), std::string::npos);

  auto trace = client->GetTrace(job_id);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(obs::ValidateStrictJson(trace.value()).empty())
      << obs::ValidateStrictJson(trace.value());
  // Chrome/Perfetto shape with the job's root span on the server track.
  EXPECT_NE(trace->find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace->find("serve/job"), std::string::npos);

  // Unknown jobs are NotFound, matching get_status semantics.
  EXPECT_FALSE(client->GetReport(job_id + 999).ok());
  EXPECT_FALSE(client->GetTrace(job_id + 999).ok());
}

TEST(ServeServerTest, FinishedJobsAnswerAfterTheirSnapshotIsFreed) {
  ServerOptions options = UnixOptions("serve_release.sock");
  ServerGuard guard(options);
  auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->RegisterDataset(RegisterRequestFor(CsvB())).ok());
  std::weak_ptr<const RegisteredDataset> weak =
      guard.server.registry().Find(CsvB().name);
  ASSERT_FALSE(weak.expired());
  auto reply = client->FindSlices(FindVariant(CsvB().name, 1));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(client->UnregisterDataset(CsvB().name).ok());
  // The registry and the finished job were the only holders.
  EXPECT_TRUE(weak.expired());

  auto status = client->GetStatus(reply->job_id);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(status->GetStringOr("state", ""), "done");
  // Slices are still rendered with the dataset's feature names.
  const obs::JsonValue* result = status->Find("result");
  ASSERT_NE(result, nullptr);
  std::vector<std::string> names;
  auto parsed = ParseResultJson(*result, &names);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectSameResult(parsed.value(), DirectResult(CsvB(), 1, &names), names);
  auto report = client->GetReport(reply->job_id);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("\"" + CsvB().name + "\""), std::string::npos);
}

TEST(ServeServerTest, MetricsTextSurvivesAdversarialMetricNames) {
  // Anything in the process-wide registry ends up on /metrics; names are
  // not restricted at registration time, so exposition validity must hold
  // for hostile ones. The entries stay registered for the rest of the
  // binary (the registry never unregisters), which also proves later
  // /metrics fetches stay valid with them present.
  auto* registry = obs::MetricsRegistry::Default();
  registry->GetCounter("serve test: spaces & sym\"bols")->Add(1);
  registry->GetCounter("serve_test/9/starts{le=\"0\"}")->Add(2);
  registry->GetCounter("serve test: spaces & sym'bols")->Add(3);
  registry->GetHistogram("serve test histo\ngram")->Observe(0.25);

  const std::string text = Server::MetricsText();
  EXPECT_TRUE(obs::ValidatePrometheusText(text).empty())
      << obs::ValidatePrometheusText(text) << "\n"
      << text;
  // ':' is a legal exposition name char, so it survives sanitization.
  EXPECT_NE(text.find("sliceline_serve_test:_spaces___sym_bols"),
            std::string::npos);
}

TEST(ServeServerTest, ShutdownDrainsInFlightJobsAndExitsCleanly) {
  ServerOptions options = UnixOptions("serve_drain.sock");
  options.workers = 1;
  auto server = std::make_unique<Server>(options);
  ASSERT_TRUE(server->Start().ok());

  auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->RegisterDataset(RegisterRequestFor(CsvA())).ok());
  FindSlicesRequest find = FindVariant(CsvA().name, 0);
  find.wait = false;
  auto submitted = client->FindSlices(find);
  ASSERT_TRUE(submitted.ok());
  const int64_t job_id = submitted->job_id;

  // The drain promise: shutdown finishes the admitted job, then exits 0.
  server->RequestShutdown();
  EXPECT_EQ(server->Wait(), 0);
  std::shared_ptr<Job> job = server->scheduler().Find(job_id);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->CurrentState(), JobState::kDone);
}

}  // namespace
}  // namespace sliceline::serve
