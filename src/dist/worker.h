#ifndef SLICELINE_DIST_WORKER_H_
#define SLICELINE_DIST_WORKER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/socket.h"
#include "common/status.h"
#include "core/evaluator.h"
#include "data/int_matrix.h"
#include "data/onehot.h"
#include "serve/worker_protocol.h"

namespace sliceline::dist {

/// Worker process configuration. Exactly one of `unix_socket` / `tcp_port`
/// selects the transport (an empty socket path means TCP; tcp_port 0 asks
/// the kernel for a port -- see Worker::tcp_port() after Start()).
struct WorkerOptions {
  std::string unix_socket;
  int tcp_port = 0;
  /// Test-only chaos: abruptly close the connection instead of serving
  /// every `drop_every`-th request (1-based count across the process
  /// lifetime; 0 disables). Exercises the coordinator's transient-failure
  /// retry path with real mid-protocol disconnects.
  int64_t drop_every = 0;
};

/// The worker side of the protocol without its transport: the shard map
/// (row shards of the one-hot matrix and their aligned error vectors, as
/// shipped by the coordinator over serve/worker_protocol.h) and one handler
/// per request type, evaluating candidate blocks with the local
/// SliceEvaluator. The socket Worker below serves it to one coordinator
/// connection at a time; an in-process link (worker_link.h) calls it
/// directly. Shards are keyed by dataset fingerprint, so they survive a
/// reconnect (what the has_shard probe exploits) but not a new handler,
/// which the session string exposes. Not thread-safe: one caller at a time.
class WorkerHandler {
 public:
  WorkerHandler();

  /// Session identifier reported on enlist; unique per handler instance so
  /// a restarted worker (new instance, same endpoint) is detectable.
  const std::string& session() const { return session_; }

  /// Handles one request line (without its trailing LF) and returns the
  /// LF-terminated response line. Sets `*shutdown` when the request asked
  /// the worker to exit.
  std::string HandleLine(const std::string& line, bool* shutdown = nullptr);

  /// Seconds the last HandleLine spent evaluating slices on a shard; wire
  /// decoding and encoding are communication, not compute.
  double last_compute_seconds() const { return last_compute_seconds_; }

 private:
  /// A fully loaded shard: stable-address storage for the matrix, errors,
  /// and offsets, because SliceEvaluator keeps pointers to all three.
  struct ShardState {
    data::IntMatrix x0;
    std::vector<double> errors;
    data::FeatureOffsets offsets;
    int64_t row_begin = 0;
    int64_t row_end = 0;
    std::unique_ptr<core::SliceEvaluator> evaluator;
  };

  /// In-flight chunked transfer of one shard.
  struct ShardStaging {
    int64_t row_begin = 0;
    int64_t row_end = 0;
    int64_t cols = 0;
    int64_t chunks = 1;
    int64_t next_chunk = 0;
    std::vector<int32_t> codes;
    std::vector<double> errors;
    std::vector<int32_t> fdom;
  };

  using ShardKey = std::pair<std::string, int64_t>;  ///< (dataset hash, shard)

  std::string Handle(const serve::WorkerRequest& request);
  StatusOr<std::string> HandleEnlist(const serve::WorkerRequest& request);
  StatusOr<std::string> HandleLoadShard(const serve::WorkerRequest& request);
  StatusOr<std::string> HandleBasicStats(const serve::WorkerRequest& request);
  StatusOr<std::string> HandleEvalBlock(const serve::WorkerRequest& request);
  StatusOr<std::string> HandleGetSpans(const serve::WorkerRequest& request);

  std::string session_;
  double last_compute_seconds_ = 0.0;
  std::map<ShardKey, std::unique_ptr<ShardState>> shards_;
  std::map<ShardKey, ShardStaging> staging_;
};

/// One slice-evaluation worker process: serves a WorkerHandler over a Unix
/// or TCP listen socket, one coordinator connection at a time; when the
/// connection drops the worker returns to accepting, so a coordinator can
/// reconnect and re-enlist mid-run.
class Worker {
 public:
  explicit Worker(const WorkerOptions& options);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Binds the listen socket and starts the serving thread.
  Status Start();

  /// Kernel-assigned TCP port (valid after Start() on the TCP transport).
  int tcp_port() const { return tcp_port_; }

  const std::string& session() const { return handler_.session(); }

  /// Asks the serving thread to exit after the in-flight request (also
  /// triggered remotely by a shutdown request).
  void RequestShutdown() { shutdown_.store(true); }

  /// Joins the serving thread. Safe to call more than once.
  void Wait();

 private:
  void Serve();
  /// Serves one coordinator connection until EOF/shutdown/drop.
  void ServeConnection(SocketConnection conn);

  WorkerOptions options_;
  WorkerHandler handler_;  ///< serving thread only
  ListenSocket listener_;
  int tcp_port_ = -1;
  std::thread thread_;
  std::atomic<bool> shutdown_{false};
  int64_t requests_seen_ = 0;  ///< serving thread only (drop_every counter)
};

}  // namespace sliceline::dist

#endif  // SLICELINE_DIST_WORKER_H_
