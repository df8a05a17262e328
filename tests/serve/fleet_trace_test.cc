// Fleet-tracing integration: an in-process Server wired to two real
// sliceline_worker processes (SLICELINE_WORKER_BIN, injected by CMake) runs
// a find_slices job with engine "remote", then the persisted artifacts are
// checked end to end — the merged Chrome trace must be strict JSON with
// spans from three distinct processes (server + both workers) sharing one
// trace id, and the run report's per-worker work accounting must sum to the
// coordinator's own DistCost in this fault-free run.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/sliceline.h"
#include "dist/coordinator.h"
#include "obs/json_parse.h"
#include "obs/json_validate.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve_test_util.h"

namespace sliceline::serve {
namespace {

/// One real worker process; stdout is piped so the test can wait for the
/// READY line and discover the kernel-assigned port (same pattern as the
/// dist chaos suite).
class WorkerProcess {
 public:
  ~WorkerProcess() { Kill(); }

  bool Start() {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::close(pipe_fds[0]);
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[1]);
      std::vector<std::string> args = {SLICELINE_WORKER_BIN, "--port", "0",
                                       "--log-level", "error"};
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    std::string line;
    char ch = 0;
    while (::read(pipe_fds[0], &ch, 1) == 1 && ch != '\n') line.push_back(ch);
    ::close(pipe_fds[0]);
    const std::string prefix = "READY port=";
    if (line.compare(0, prefix.size(), prefix) != 0) return false;
    port_ = std::atoi(line.c_str() + prefix.size());
    return port_ > 0;
  }

  int port() const { return port_; }

  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int port_ = -1;
};

double SectionValue(const obs::JsonValue& report, const std::string& section,
                    const std::string& key, double fallback = -1.0) {
  const obs::JsonValue* sections = report.Find("sections");
  if (sections == nullptr) return fallback;
  const obs::JsonValue* values = sections->Find(section);
  if (values == nullptr) return fallback;
  return values->GetNumberOr(key, fallback);
}

TEST(FleetTraceTest, RemoteJobProducesMergedTraceAndConsistentReport) {
  // -- fleet + server ------------------------------------------------------
  std::vector<std::unique_ptr<WorkerProcess>> fleet;
  std::vector<dist::WorkerEndpoint> endpoints;
  for (int i = 0; i < 2; ++i) {
    auto worker = std::make_unique<WorkerProcess>();
    ASSERT_TRUE(worker->Start()) << "worker " << i;
    endpoints.push_back(dist::WorkerEndpoint{"", worker->port()});
    fleet.push_back(std::move(worker));
  }

  ServerOptions options;
  options.unix_socket = ::testing::TempDir() + "/" +
                        std::to_string(::getpid()) + "_fleet_trace.sock";
  options.workers = 2;
  // Same wiring as tools/sliceline_server.cc: a fresh coordinator per job.
  options.remote_engine =
      [endpoints](const data::EncodedDataset& dataset,
                  const core::SliceLineConfig& config, uint64_t trace_id,
                  obs::DistObsBundle* obs_out)
      -> StatusOr<core::SliceLineResult> {
    dist::DistOptions remote;
    remote.endpoints = endpoints;
    remote.trace_id = trace_id;
    return dist::RunSliceLineDistributed(dataset.x0, dataset.errors, config,
                                         remote, /*cost_out=*/nullptr,
                                         /*faults_out=*/nullptr, obs_out);
  };
  Server server(options);
  const Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  // -- register + run one remote job --------------------------------------
  const std::string csv_path = ::testing::TempDir() + "/" +
                               std::to_string(::getpid()) + "_fleet_trace.csv";
  WriteFileOrDie(csv_path, MakeCsvText(500, 4, 3, 77));

  auto client = Client::Connect(Endpoint::Unix(options.unix_socket));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  RegisterDatasetRequest register_request;
  register_request.name = "fleet";
  register_request.csv_path = csv_path;
  register_request.label = "target";
  ASSERT_TRUE(client->RegisterDataset(register_request).ok());

  FindSlicesRequest find_request;
  find_request.dataset = "fleet";
  find_request.engine = "remote";
  find_request.k = 4;
  auto reply = client->FindSlices(find_request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_GE(reply->job_id, 1);
  EXPECT_FALSE(reply->result.top_k.empty());

  auto report_text = client->GetReport(reply->job_id);
  ASSERT_TRUE(report_text.ok()) << report_text.status().ToString();
  auto trace_text = client->GetTrace(reply->job_id);
  ASSERT_TRUE(trace_text.ok()) << trace_text.status().ToString();

  server.RequestShutdown();
  EXPECT_EQ(server.Wait(), 0);
  std::remove(csv_path.c_str());

  // -- the report: per-worker accounting vs coordinator DistCost -----------
  ASSERT_EQ(obs::ValidateStrictJson(*report_text), "");
  auto report = obs::ParseJson(*report_text);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const obs::JsonValue* annotations = report->Find("annotations");
  ASSERT_NE(annotations, nullptr);
  const std::string trace_id = annotations->GetStringOr("trace_id", "0");
  EXPECT_NE(trace_id, "0");

  // Fault-free run over the full fleet.
  EXPECT_EQ(SectionValue(*report, "dist_cost", "workers"), 2.0);
  EXPECT_EQ(SectionValue(*report, "dist_cost", "alive_workers"), 2.0);
  EXPECT_EQ(SectionValue(*report, "dist_faults", "workers_lost"), 0.0);
  EXPECT_EQ(SectionValue(*report, "dist_faults", "fallback_local"), 0.0);
  EXPECT_GE(SectionValue(*report, "dist_cost", "rounds"), 1.0);
  EXPECT_EQ(SectionValue(*report, "dist_trace", "processes"), 3.0);

  // Every evaluated slice the coordinator accepted was counted by exactly
  // one worker (no faults, so no speculative duplicates): the fleet-wide
  // sum of worker-side eval counters equals the coordinator's DistCost.
  const double accepted =
      SectionValue(*report, "dist_cost", "eval_slices_accepted");
  EXPECT_GT(accepted, 0.0);
  double worker_slices = 0.0;
  double worker_spans = 0.0;
  for (int w = 0; w < 2; ++w) {
    const std::string section = "worker_" + std::to_string(w);
    const double slices =
        SectionValue(*report, section, "worker/eval_slices", -1.0);
    ASSERT_GE(slices, 0.0) << "missing section " << section;
    worker_slices += slices;
    // The shard evaluator reports its own counters too.
    EXPECT_EQ(SectionValue(*report, section, "evaluator/slices_evaluated"),
              slices)
        << section;
    const double spans = SectionValue(*report, section, "spans");
    EXPECT_GT(spans, 0.0) << section;
    worker_spans += spans;
    EXPECT_NE(annotations->GetStringOr(section + "_label", ""), "");
  }
  EXPECT_EQ(worker_slices, accepted);
  const double server_spans =
      SectionValue(*report, "dist_trace", "server_spans");
  EXPECT_GT(server_spans, 0.0);
  EXPECT_EQ(SectionValue(*report, "dist_trace", "worker_spans"),
            worker_spans);

  // -- the merged timeline: 3 process lanes, one shared trace id -----------
  ASSERT_EQ(obs::ValidateStrictJson(*trace_text), "");
  auto trace = obs::ParseJson(*trace_text);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const obs::JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::map<int64_t, std::string> lane_labels;
  std::map<int64_t, int64_t> lane_spans;
  std::map<int64_t, int64_t> lane_evaluate_spans;
  int64_t total_spans = 0;
  for (const obs::JsonValue& event : events->array_items()) {
    const int64_t pid = event.GetIntOr("pid", -1);
    if (event.GetStringOr("ph", "") == "M") {
      const obs::JsonValue* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      lane_labels[pid] = args->GetStringOr("name", "");
      continue;
    }
    // Every real span carries the one job-wide trace id.
    const obs::JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr) << event.GetStringOr("name", "?");
    EXPECT_EQ(args->GetStringOr("trace_id", ""), trace_id)
        << event.GetStringOr("name", "?");
    ++lane_spans[pid];
    if (event.GetStringOr("name", "") == "evaluator/evaluate") {
      ++lane_evaluate_spans[pid];
    }
    ++total_spans;
  }
  // Three distinct processes, each with at least one span: the server lane
  // plus one lane per worker, labels matching the report's attribution.
  ASSERT_EQ(lane_spans.size(), 3u);
  std::set<std::string> labels;
  for (const auto& [pid, count] : lane_spans) {
    EXPECT_GT(count, 0) << "pid " << pid;
    ASSERT_NE(lane_labels.find(pid), lane_labels.end());
    labels.insert(lane_labels[pid]);
  }
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_NE(labels.count("server"), 0u);
  // Each worker lane holds its shard evaluator's spans.
  for (const auto& [pid, label] : lane_labels) {
    if (label == "server") continue;
    EXPECT_GT(lane_evaluate_spans[pid], 0) << label;
  }
  // The timeline and the report agree on the span census.
  EXPECT_EQ(total_spans,
            static_cast<int64_t>(server_spans) +
                static_cast<int64_t>(worker_spans));
}

}  // namespace
}  // namespace sliceline::serve
