#ifndef SLICELINE_DIST_WORKER_LINK_H_
#define SLICELINE_DIST_WORKER_LINK_H_

#include <memory>
#include <optional>
#include <string>

#include "common/run_context.h"
#include "common/status.h"
#include "dist/fault_injection.h"

namespace sliceline::dist {

/// Address of one sliceline_worker process: a Unix-domain socket path, or a
/// loopback TCP port when the path is empty.
struct WorkerEndpoint {
  std::string unix_socket;
  int tcp_port = 0;
};

/// One worker reply line and how long the worker was busy producing it.
struct LinkReply {
  std::string line;  ///< without the trailing LF
  /// Socket links: send-to-reply time. In-process links: the handler's
  /// measured compute (WorkerHandler::last_compute_seconds) plus any
  /// injected straggler delay.
  double busy_seconds = 0.0;
};

/// The coordinator's channel to one worker, carrying serialized
/// worker-protocol lines (serve/worker_protocol.h) with at most one request
/// in flight. The coordinator enlists over it right after Connect().
class WorkerLink {
 public:
  virtual ~WorkerLink() = default;
  /// Opens the channel.
  virtual Status Connect() = 0;
  /// Sends one LF-terminated request line.
  virtual Status Send(const std::string& line) = 0;
  /// Waits up to `timeout_ms` for the in-flight request's reply; nullopt
  /// while it has not arrived.
  virtual StatusOr<std::optional<LinkReply>> Poll(int timeout_ms) = 0;
  /// Drops the channel and any reply still in flight.
  virtual void Close() = 0;
};

/// A connection to a sliceline_worker process.
std::unique_ptr<WorkerLink> MakeSocketLink(const WorkerEndpoint& endpoint,
                                           int connect_timeout_ms);

/// A worker in this process: every line goes straight to a WorkerHandler,
/// the request handler sliceline_worker serves, which the link owns (its
/// shards survive Close/Connect like a worker process's do).
std::unique_ptr<WorkerLink> MakeInProcessLink();

/// Wraps `inner` with the seeded faults (FaultType) `injector` draws for
/// worker `worker`, timing straggler holds on `clock`. The faultable
/// requests are basic_stats (round -1) and eval_block (round = its parent
/// span - 1). Their attempt number is how many faults the link already
/// injected in that round, so every block of a worker's round sees the same
/// draw until a fault fires: the rates are per worker and round, however
/// many blocks the round has. `injector` and `clock` must outlive the link.
std::unique_ptr<WorkerLink> MakeFaultyLink(std::unique_ptr<WorkerLink> inner,
                                           const FaultInjector* injector,
                                           int worker, const Clock* clock);

}  // namespace sliceline::dist

#endif  // SLICELINE_DIST_WORKER_LINK_H_
