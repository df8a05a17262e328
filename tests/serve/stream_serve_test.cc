// Streaming surface of the daemon: append_rows round trips (single-shot
// and chunked, with out-of-order transfers voided), result-cache
// invalidation keyed by the delta fingerprint chain, watch/unwatch/
// watch-status over the wire with tau-crossing alerts that echo the
// dataset's data_hash, a watch racing an append never missing it,
// unregister_dataset refusal rules, the stream metrics on /metrics, and a
// clean drain after streaming traffic.
#include <gtest/gtest.h>
#include <unistd.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/prometheus_validate.h"
#include "serve/client.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve_test_util.h"

namespace sliceline::serve {
namespace {

struct TestCsv {
  std::string name;
  std::string path;
  std::string text;
};

const TestCsv& StreamCsv() {
  static const TestCsv* csv = [] {
    auto* c = new TestCsv;
    c->name = "stream_alpha";
    c->path = ::testing::TempDir() + "/serve_stream_alpha_" +
              std::to_string(::getpid()) + ".csv";
    c->text = MakeCsvText(800, 4, 3, 31);
    WriteFileOrDie(c->path, c->text);
    return c;
  }();
  return *csv;
}

RegisterDatasetRequest RegisterRequestFor(const TestCsv& csv) {
  RegisterDatasetRequest request;
  request.name = csv.name;
  request.csv_path = csv.path;
  request.label = "target";
  return request;
}

FindSlicesRequest FindFor(const std::string& dataset) {
  FindSlicesRequest find;
  find.dataset = dataset;
  find.k = 4;
  find.alpha = 0.95;
  return find;
}

ServerOptions UnixOptions(const std::string& socket_name) {
  ServerOptions options;
  options.unix_socket = ::testing::TempDir() + "/" +
                        std::to_string(::getpid()) + "_" + socket_name;
  return options;
}

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

/// Raw feature cells in encoder order (c0..c3); values the base CSV's
/// dictionary has seen.
std::vector<std::vector<std::string>> BenignCells(int rows) {
  std::vector<std::vector<std::string>> cells;
  for (int i = 0; i < rows; ++i) {
    cells.push_back({"v0", "v2", "v1", std::string("v") +
                                           std::to_string(i % 3)});
  }
  return cells;
}

TEST(ServeStreamTest, AppendRoundTripRecodesAndInvalidatesCache) {
  ServerOptions options = UnixOptions("serve_stream_append.sock");
  ServerGuard guard(options);
  auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->RegisterDataset(RegisterRequestFor(StreamCsv())).ok());

  auto before = client->FindSlices(FindFor(StreamCsv().name));
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  AppendRowsRequest append;
  append.dataset = StreamCsv().name;
  append.rows = BenignCells(5);
  append.errors = std::vector<double>(5, 100.0);
  auto applied = client->AppendRows(append);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->GetIntOr("rows_appended", 0), 5);
  EXPECT_EQ(applied->GetIntOr("n", 0), 805);
  EXPECT_EQ(applied->GetIntOr("version", 0), 1);
  // The cached result for the pre-append fingerprint is gone.
  EXPECT_EQ(applied->GetIntOr("cache_invalidated", -1), 1);
  EXPECT_EQ(guard.server.cache().invalidations(), 1);

  // The follow-up find recomputes over the appended dataset.
  auto after = client->FindSlices(FindFor(StreamCsv().name));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->cache_hit);
  EXPECT_NE(after->result.average_error, before->result.average_error);

  // Unseen categories and invalid errors are structured rejections that
  // leave the dataset untouched.
  AppendRowsRequest unseen;
  unseen.dataset = StreamCsv().name;
  unseen.rows = {{"v9", "v0", "v0", "v0"}};
  unseen.errors = {1.0};
  auto rejected = client->AppendRows(unseen);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  AppendRowsRequest negative;
  negative.dataset = StreamCsv().name;
  negative.rows = BenignCells(1);
  negative.errors = {-1.0};
  ASSERT_FALSE(client->AppendRows(negative).ok());

  AppendRowsRequest unknown;
  unknown.dataset = "no_such_dataset";
  unknown.rows = BenignCells(1);
  unknown.errors = {1.0};
  auto missing = client->AppendRows(unknown);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  auto stats = client->ServerStats();
  ASSERT_TRUE(stats.ok());
  const obs::JsonValue* stream = stats->Find("stream");
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->GetIntOr("appends_total", 0), 1);
}

TEST(ServeStreamTest, ChunkedAppendAppliesOnceAndVoidsOutOfOrder) {
  ServerOptions options = UnixOptions("serve_stream_chunked.sock");
  ServerGuard guard(options);
  auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
  ASSERT_TRUE(client.ok());
  RegisterDatasetRequest reg = RegisterRequestFor(StreamCsv());
  reg.name = "chunked";
  ASSERT_TRUE(client->RegisterDataset(reg).ok());

  // A chunk arriving before chunk 0 of its transfer is an error.
  AppendRowsRequest stray;
  stray.dataset = "chunked";
  stray.xfer = "t1";
  stray.chunk = 1;
  stray.chunks = 3;
  stray.rows = BenignCells(1);
  stray.errors = {1.0};
  auto out_of_order = client->AppendRows(stray);
  ASSERT_FALSE(out_of_order.ok());
  EXPECT_EQ(out_of_order.status().code(), StatusCode::kInvalidArgument);

  // Chunk 0 buffers; skipping ahead voids the transfer.
  AppendRowsRequest first = stray;
  first.chunk = 0;
  auto buffered = client->AppendRows(first);
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  EXPECT_EQ(buffered->GetIntOr("buffered_rows", 0), 1);
  AppendRowsRequest skipped = stray;
  skipped.chunk = 2;
  ASSERT_FALSE(client->AppendRows(skipped).ok());

  // A well-ordered transfer applies exactly its total row count.
  auto applied = client->AppendRowsChunked("chunked", BenignCells(5),
                                           std::vector<double>(5, 2.0),
                                           /*rows_per_chunk=*/2);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->GetIntOr("rows_appended", 0), 5);
  EXPECT_EQ(applied->GetIntOr("n", 0), 805);
}

TEST(ServeStreamTest, WatchFiresAlertOverWireAndReportsStatus) {
  ServerOptions options = UnixOptions("serve_stream_watch.sock");
  ServerGuard guard(options);
  auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
  ASSERT_TRUE(client.ok());
  RegisterDatasetRequest reg = RegisterRequestFor(StreamCsv());
  reg.name = "watched";
  ASSERT_TRUE(client->RegisterDataset(reg).ok());

  // No watch yet: the dataset-keyed get_status form is NotFound.
  auto unwatched = client->WatchStatus("watched");
  ASSERT_FALSE(unwatched.ok());
  EXPECT_EQ(unwatched.status().code(), StatusCode::kNotFound);

  // The base CSV plants a high-error (c0=v1, c1=v1) subgroup, so the first
  // evaluation already clears a low tau and must fire exactly once.
  WatchRequest watch;
  watch.dataset = "watched";
  watch.tau = 0.5;
  watch.hysteresis = 0.2;
  auto watching = client->Watch(watch);
  ASSERT_TRUE(watching.ok()) << watching.status().ToString();
  EXPECT_FALSE(watching->GetBoolOr("replaced", true));
  EXPECT_EQ(watching->GetIntOr("window_rows", 0), 800);
  EXPECT_EQ(guard.server.watch_count(), 1);

  AppendRowsRequest append;
  append.dataset = "watched";
  append.rows = BenignCells(5);
  append.errors = std::vector<double>(5, 0.1);
  auto fired = client->AppendRows(append);
  ASSERT_TRUE(fired.ok()) << fired.status().ToString();
  const obs::JsonValue* alert = fired->Find("alert");
  ASSERT_NE(alert, nullptr);
  EXPECT_EQ(alert->GetStringOr("dataset", ""), "watched");
  EXPECT_GE(alert->Find("score")->number_value(), watch.tau);
  EXPECT_EQ(alert->GetIntOr("at_rows", 0), 805);
  // The alert echoes the data_hash of the snapshot its append produced.
  EXPECT_EQ(alert->GetStringOr("fingerprint", ""),
            fired->GetStringOr("data_hash", "?"));

  // Still above tau: the next append does not re-fire.
  auto quiet = client->AppendRows(append);
  ASSERT_TRUE(quiet.ok());
  EXPECT_EQ(quiet->Find("alert"), nullptr);

  auto status = client->WatchStatus("watched");
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_TRUE(status->GetBoolOr("watching", false));
  EXPECT_FALSE(status->GetBoolOr("armed", true));
  EXPECT_EQ(status->GetIntOr("alerts_fired", 0), 1);
  EXPECT_EQ(status->GetIntOr("evaluations", 0), 2);
  EXPECT_EQ(status->GetIntOr("total_rows", 0), 810);
  // Status reports the dataset's current data_hash: the last append's.
  EXPECT_EQ(status->GetStringOr("fingerprint", ""),
            quiet->GetStringOr("data_hash", "?"));
  const obs::JsonValue* recent = status->Find("recent_alerts");
  ASSERT_NE(recent, nullptr);
  EXPECT_EQ(recent->array_items().size(), 1u);
  EXPECT_EQ(guard.server.stream_alerts_total(), 1);

  auto stats = client->ServerStats();
  ASSERT_TRUE(stats.ok());
  const obs::JsonValue* stream = stats->Find("stream");
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->GetIntOr("watches", 0), 1);
  EXPECT_EQ(stream->GetIntOr("alerts_total", 0), 1);

  auto unwatch = client->Unwatch("watched");
  ASSERT_TRUE(unwatch.ok());
  EXPECT_TRUE(unwatch->GetBoolOr("existed", false));
  EXPECT_EQ(guard.server.watch_count(), 0);
  ASSERT_FALSE(client->WatchStatus("watched").ok());
}

TEST(ServeStreamTest, WatchRacingAnAppendNeverMissesIt) {
  ServerOptions options = UnixOptions("serve_stream_race.sock");
  ServerGuard guard(options);
  const std::string path = ::testing::TempDir() + "/serve_stream_race_" +
                           std::to_string(::getpid()) + ".csv";
  WriteFileOrDie(path, MakeCsvText(3000, 4, 3, 33));
  auto watcher_client = Client::Connect(Endpoint::Unix(options.unix_socket));
  auto append_client = Client::Connect(Endpoint::Unix(options.unix_socket));
  ASSERT_TRUE(watcher_client.ok());
  ASSERT_TRUE(append_client.ok());
  RegisterDatasetRequest reg;
  reg.name = "raced";
  reg.csv_path = path;
  reg.label = "target";
  ASSERT_TRUE(watcher_client->RegisterDataset(reg).ok());

  WatchRequest watch;
  watch.dataset = "raced";
  watch.tau = 1e9;  // the subject is row accounting, not alerting
  AppendRowsRequest append;
  append.dataset = "raced";
  append.rows = BenignCells(1);
  append.errors = {1.0};
  // Each round replaces the watch while an append lands: whichever wins,
  // the watch that stays must have seen every row the dataset holds.
  for (int round = 0; round < 24; ++round) {
    std::thread watcher([&] {
      auto watched = watcher_client->Watch(watch);
      EXPECT_TRUE(watched.ok()) << watched.status().ToString();
    });
    auto appended = append_client->AppendRows(append);
    watcher.join();
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    auto status = append_client->WatchStatus("raced");
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    ASSERT_EQ(status->GetIntOr("total_rows", 0),
              guard.server.registry().Find("raced")->dataset.n())
        << "round " << round;
  }
}

TEST(ServeStreamTest, UnregisterRefusesWatchedDatasetThenSucceeds) {
  ServerOptions options = UnixOptions("serve_stream_unregister.sock");
  ServerGuard guard(options);
  auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
  ASSERT_TRUE(client.ok());
  RegisterDatasetRequest reg = RegisterRequestFor(StreamCsv());
  reg.name = "ephemeral";
  ASSERT_TRUE(client->RegisterDataset(reg).ok());
  ASSERT_TRUE(client->FindSlices(FindFor("ephemeral")).ok());

  auto missing = client->UnregisterDataset("no_such_dataset");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  WatchRequest watch;
  watch.dataset = "ephemeral";
  watch.tau = 100.0;
  ASSERT_TRUE(client->Watch(watch).ok());
  auto refused = client->UnregisterDataset("ephemeral");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(client->Unwatch("ephemeral").ok());
  auto dropped = client->UnregisterDataset("ephemeral");
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  // The cached find for the dropped dataset went with it.
  EXPECT_EQ(dropped->GetIntOr("cache_invalidated", -1), 1);
  EXPECT_EQ(guard.server.registry().size(), 0u);

  auto gone = client->FindSlices(FindFor("ephemeral"));
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);

  // Re-registering under the same name starts a fresh version lineage.
  ASSERT_TRUE(client->RegisterDataset(reg).ok());
  ASSERT_TRUE(client->FindSlices(FindFor("ephemeral")).ok());
}

TEST(ServeStreamTest, ActiveJobsGateUnregister) {
  auto dataset =
      BuildRegisteredDataset("held", MakeCsvText(120, 3, 3, 32));
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  Scheduler::Options options;
  options.workers = 1;
  options.remote_engine =
      [&](const data::EncodedDataset&, const core::SliceLineConfig&,
          uint64_t, obs::DistObsBundle*) -> StatusOr<core::SliceLineResult> {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
    return core::SliceLineResult{};
  };
  Scheduler scheduler(options);

  JobSpec spec;
  spec.dataset = dataset.value();
  spec.engine = "remote";
  auto job = scheduler.Submit(std::move(spec));
  ASSERT_TRUE(job.ok()) << job.status().ToString();

  // Non-terminal (queued or blocked inside the engine): the dataset is
  // referenced and unregister must refuse.
  EXPECT_TRUE(scheduler.HasActiveJobsForDataset("held"));
  EXPECT_FALSE(scheduler.HasActiveJobsForDataset("other"));

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  job.value()->WaitDone();
  EXPECT_FALSE(scheduler.HasActiveJobsForDataset("held"));
}

TEST(ServeStreamTest, StreamSeriesOnMetricsEndpoint) {
  ServerOptions options = UnixOptions("serve_stream_metrics.sock");
  ServerGuard guard(options);
  {
    auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
    ASSERT_TRUE(client.ok());
    RegisterDatasetRequest reg = RegisterRequestFor(StreamCsv());
    reg.name = "metered";
    ASSERT_TRUE(client->RegisterDataset(reg).ok());
    ASSERT_TRUE(client->FindSlices(FindFor("metered")).ok());
    AppendRowsRequest append;
    append.dataset = "metered";
    append.rows = BenignCells(3);
    append.errors = std::vector<double>(3, 1.0);
    ASSERT_TRUE(client->AppendRows(append).ok());
  }
  auto metrics = FetchMetrics(Endpoint::Unix(options.unix_socket));
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const std::string& text = metrics.value();
  EXPECT_TRUE(obs::ValidatePrometheusText(text).empty())
      << obs::ValidatePrometheusText(text);
  for (const char* series :
       {"sliceline_stream_appends_total", "sliceline_stream_alerts_total",
        "sliceline_serve_result_cache_entries",
        "sliceline_serve_result_cache_evictions",
        "sliceline_serve_result_cache_invalidations"}) {
    EXPECT_NE(text.find(series), std::string::npos) << series;
  }
}

TEST(ServeStreamTest, DrainAfterStreamingTrafficExitsCleanly) {
  ServerOptions options = UnixOptions("serve_stream_drain.sock");
  auto server = std::make_unique<Server>(options);
  ASSERT_TRUE(server->Start().ok());
  {
    auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
    ASSERT_TRUE(client.ok());
    RegisterDatasetRequest reg = RegisterRequestFor(StreamCsv());
    reg.name = "draining";
    ASSERT_TRUE(client->RegisterDataset(reg).ok());
    WatchRequest watch;
    watch.dataset = "draining";
    watch.tau = 0.5;
    ASSERT_TRUE(client->Watch(watch).ok());
    AppendRowsRequest append;
    append.dataset = "draining";
    append.rows = BenignCells(2);
    append.errors = std::vector<double>(2, 1.0);
    // The append (and its watch evaluation) completes before the drain
    // lets the connection go: the alert is recorded, the exit is clean.
    auto applied = client->AppendRows(append);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  }
  server->RequestShutdown();
  EXPECT_EQ(server->Wait(), 0);
  EXPECT_EQ(server->watch_count(), 1);
}

}  // namespace
}  // namespace sliceline::serve
