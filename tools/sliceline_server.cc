// The slice-finding daemon. Listens on a Unix-domain socket and/or a
// loopback TCP port for newline-delimited strict-JSON requests (see
// src/serve/protocol.h), serves GET /metrics in Prometheus text format on
// the same listeners, and drains gracefully on SIGTERM/SIGINT: running and
// queued jobs finish, new work is refused, the trace is flushed, exit 0.
//
// Usage:
//   sliceline_server [--socket PATH] [--port N] [--workers N]
//                    [--max-queue N] [--memory-budget-mb MB]
//                    [--cache-capacity N] [--max-connections N]
//                    [--default-deadline-ms MS] [--trace-out PATH]
//                    [--worker-socket PATH]... [--worker-port N]...
//                    [--no-fleet-trace]
//                    [--log-level debug|info|warn|error]
//
// At least one of --socket / --port is required; --port 0 binds a
// kernel-assigned port. Once listening, one line per endpoint is printed to
// stdout ("READY port=N" / "READY socket=PATH") so wrapper scripts can wait
// for startup and discover the bound port.
//
// --worker-socket / --worker-port (repeatable) name running
// sliceline_worker processes; when at least one is given, find_slices
// accepts engine "remote" and runs the distributed coordinator against that
// fleet, with per-job distributed traces retrievable via the client's
// `trace <job>` subcommand.
#include <csignal>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "dist/coordinator.h"
#include "serve/server.h"

namespace {

struct ServerCliOptions {
  sliceline::serve::ServerOptions server;
  std::vector<sliceline::dist::WorkerEndpoint> worker_endpoints;
  std::string log_level = "info";
};

std::atomic<sliceline::serve::Server*> g_server{nullptr};

// Only an atomic store happens here; the actual drain runs on the main
// thread inside Server::Wait().
void HandleSignal(int) {
  sliceline::serve::Server* server = g_server.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestShutdown();
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: sliceline_server [--socket PATH] [--port N] [options]\n"
      "  --socket PATH          listen on a Unix-domain socket\n"
      "  --port N               listen on 127.0.0.1:N (0 = kernel-assigned)\n"
      "  --workers N            job worker threads (default 4)\n"
      "  --max-queue N          admission bound on in-flight jobs (16)\n"
      "  --memory-budget-mb MB  server-wide job memory budget (0 = none)\n"
      "  --cache-capacity N     result-cache entries (128; 0 disables)\n"
      "  --max-connections N    concurrent connections (64)\n"
      "  --default-deadline-ms MS  deadline for requests without one (0)\n"
      "  --trace-out PATH       flush a Chrome trace on shutdown and on\n"
      "                         every server_stats request\n"
      "  --worker-socket PATH   sliceline_worker Unix socket (repeatable;\n"
      "                         enables engine 'remote')\n"
      "  --worker-port N        sliceline_worker loopback TCP port\n"
      "                         (repeatable; enables engine 'remote')\n"
      "  --no-fleet-trace       disable per-job distributed tracing\n"
      "  --log-level LEVEL      debug|info|warn|error (default info)\n"
      "Every flag also accepts --flag=value.\n");
}

bool ParseArgs(int argc, char** argv, ServerCliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (arg.size() > 2 && arg.compare(0, 2, "--") == 0) {
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline = true;
      }
    }
    auto next = [&](const char* name) -> const char* {
      if (has_inline) return inline_value.c_str();
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      const char* v = next("--socket");
      if (v == nullptr) return false;
      options->server.unix_socket = v;
    } else if (arg == "--port") {
      const char* v = next("--port");
      if (v == nullptr) return false;
      options->server.tcp_port = std::atoi(v);
    } else if (arg == "--workers") {
      const char* v = next("--workers");
      if (v == nullptr) return false;
      options->server.workers = std::atoi(v);
    } else if (arg == "--max-queue") {
      const char* v = next("--max-queue");
      if (v == nullptr) return false;
      options->server.max_queue = std::atoi(v);
    } else if (arg == "--memory-budget-mb") {
      const char* v = next("--memory-budget-mb");
      if (v == nullptr) return false;
      options->server.memory_budget_mb = std::atoll(v);
    } else if (arg == "--cache-capacity") {
      const char* v = next("--cache-capacity");
      if (v == nullptr) return false;
      options->server.cache_capacity = std::atoll(v);
    } else if (arg == "--max-connections") {
      const char* v = next("--max-connections");
      if (v == nullptr) return false;
      options->server.max_connections = std::atoi(v);
    } else if (arg == "--default-deadline-ms") {
      const char* v = next("--default-deadline-ms");
      if (v == nullptr) return false;
      options->server.default_deadline_seconds = std::atof(v) / 1e3;
    } else if (arg == "--trace-out") {
      const char* v = next("--trace-out");
      if (v == nullptr) return false;
      options->server.trace_out = v;
    } else if (arg == "--worker-socket") {
      const char* v = next("--worker-socket");
      if (v == nullptr) return false;
      sliceline::dist::WorkerEndpoint endpoint;
      endpoint.unix_socket = v;
      options->worker_endpoints.push_back(std::move(endpoint));
    } else if (arg == "--worker-port") {
      const char* v = next("--worker-port");
      if (v == nullptr) return false;
      sliceline::dist::WorkerEndpoint endpoint;
      endpoint.tcp_port = std::atoi(v);
      if (endpoint.tcp_port <= 0) {
        std::fprintf(stderr, "--worker-port needs a positive port\n");
        return false;
      }
      options->worker_endpoints.push_back(std::move(endpoint));
    } else if (arg == "--no-fleet-trace") {
      options->server.fleet_tracing = false;
    } else if (arg == "--log-level") {
      const char* v = next("--log-level");
      if (v == nullptr) return false;
      options->log_level = v;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ServerCliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 1;
  }
  if (options.log_level == "debug") {
    sliceline::SetLogLevel(sliceline::LogLevel::kDebug);
  } else if (options.log_level == "warn") {
    sliceline::SetLogLevel(sliceline::LogLevel::kWarning);
  } else if (options.log_level == "error") {
    sliceline::SetLogLevel(sliceline::LogLevel::kError);
  } else {
    sliceline::SetLogLevel(sliceline::LogLevel::kInfo);
  }
  if (options.server.unix_socket.empty() && options.server.tcp_port < 0) {
    std::fprintf(stderr, "need --socket and/or --port\n");
    PrintUsage();
    return 1;
  }
  if (options.server.workers < 1 || options.server.max_queue < 1 ||
      options.server.max_connections < 1) {
    std::fprintf(stderr,
                 "--workers, --max-queue, --max-connections must be >= 1\n");
    return 1;
  }

  if (!options.worker_endpoints.empty()) {
    // Wire the distributed coordinator in as the "remote" engine. The hook
    // runs on scheduler worker threads; RunSliceLineDistributed builds a fresh
    // coordinator (connections and all) per job, so jobs do not share
    // mutable cluster state.
    const std::vector<sliceline::dist::WorkerEndpoint> endpoints =
        options.worker_endpoints;
    options.server.remote_engine =
        [endpoints](const sliceline::data::EncodedDataset& dataset,
                    const sliceline::core::SliceLineConfig& config,
                    uint64_t trace_id, sliceline::obs::DistObsBundle* obs_out)
        -> sliceline::StatusOr<sliceline::core::SliceLineResult> {
      sliceline::dist::DistOptions remote;
      remote.endpoints = endpoints;
      remote.trace_id = trace_id;
      return sliceline::dist::RunSliceLineDistributed(
          dataset.x0, dataset.errors, config, remote,
          /*cost_out=*/nullptr, /*faults_out=*/nullptr, obs_out);
    };
  }

  sliceline::serve::Server server(options.server);
  const sliceline::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "startup failed: %s\n", started.message().c_str());
    return 1;
  }
  g_server.store(&server, std::memory_order_release);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  if (server.tcp_port() >= 0) {
    std::printf("READY port=%d\n", server.tcp_port());
  }
  if (!options.server.unix_socket.empty()) {
    std::printf("READY socket=%s\n", options.server.unix_socket.c_str());
  }
  std::fflush(stdout);

  const int exit_code = server.Wait();
  g_server.store(nullptr, std::memory_order_release);
  return exit_code;
}
