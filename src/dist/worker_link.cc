#include "dist/worker_link.h"

#include <utility>

#include "common/socket.h"
#include "dist/worker.h"
#include "obs/json_parse.h"
#include "serve/protocol.h"
#include "serve/worker_protocol.h"

namespace sliceline::dist {

namespace {

/// How long a readable socket may take to deliver the rest of a line; a
/// partial frame stays buffered for the next poll.
constexpr int kPartialLineMs = 50;

class SocketLink : public WorkerLink {
 public:
  SocketLink(const WorkerEndpoint& endpoint, int connect_timeout_ms)
      : endpoint_(endpoint), connect_timeout_ms_(connect_timeout_ms) {}

  Status Connect() override {
    StatusOr<SocketConnection> conn =
        endpoint_.unix_socket.empty()
            ? ConnectTcp(endpoint_.tcp_port, connect_timeout_ms_)
            : ConnectUnix(endpoint_.unix_socket, connect_timeout_ms_);
    SLICELINE_RETURN_NOT_OK(conn.status());
    conn_ = std::move(conn).value();
    return Status::OK();
  }

  Status Send(const std::string& line) override {
    sent_at_ = SteadyClock::Default()->NowSeconds();
    return conn_.WriteLine(line, serve::kWorkerMaxLineBytes);
  }

  StatusOr<std::optional<LinkReply>> Poll(int timeout_ms) override {
    SLICELINE_ASSIGN_OR_RETURN(const bool readable,
                               conn_.WaitReadable(timeout_ms));
    if (!readable) return std::optional<LinkReply>();
    StatusOr<std::string> line =
        conn_.ReadLine(serve::kWorkerMaxLineBytes, kPartialLineMs);
    if (!line.ok()) {
      if (line.status().code() == StatusCode::kDeadlineExceeded) {
        return std::optional<LinkReply>();
      }
      return line.status();
    }
    return std::optional<LinkReply>(LinkReply{
        std::move(line).value(),
        SteadyClock::Default()->NowSeconds() - sent_at_});
  }

  void Close() override { conn_.Close(); }

 private:
  WorkerEndpoint endpoint_;
  int connect_timeout_ms_;
  SocketConnection conn_;
  double sent_at_ = 0.0;
};

class InProcessLink : public WorkerLink {
 public:
  Status Connect() override { return Status::OK(); }

  Status Send(const std::string& line) override {
    std::string reply = handler_.HandleLine(line);
    reply.pop_back();  // a socket reader strips the LF too
    reply_ = LinkReply{std::move(reply), handler_.last_compute_seconds()};
    return Status::OK();
  }

  StatusOr<std::optional<LinkReply>> Poll(int) override {
    return std::exchange(reply_, std::nullopt);
  }

  void Close() override { reply_.reset(); }

 private:
  WorkerHandler handler_;
  std::optional<LinkReply> reply_;
};

class FaultyLink : public WorkerLink {
 public:
  FaultyLink(std::unique_ptr<WorkerLink> inner, const FaultInjector* injector,
             int worker, const Clock* clock)
      : inner_(std::move(inner)),
        injector_(injector),
        worker_(worker),
        clock_(clock) {}

  Status Connect() override {
    if (lost_) return Status::IoError("injected worker loss");
    return inner_->Connect();
  }

  Status Send(const std::string& line) override {
    if (lost_) return Status::IoError("injected worker loss");
    fault_ = FaultType::kNone;
    SLICELINE_ASSIGN_OR_RETURN(const serve::WorkerRequest request,
                               serve::ParseWorkerRequest(line));
    type_ = request.type;
    if (type_ == serve::WorkerRequestType::kBasicStats ||
        type_ == serve::WorkerRequestType::kEvalBlock) {
      const int64_t round = type_ == serve::WorkerRequestType::kEvalBlock
                                ? request.parent_span_id - 1
                                : -1;
      if (round != round_) attempt_ = 0;
      round_ = round;
      fault_ = injector_->Sample(round_, worker_, attempt_);
      if (fault_ != FaultType::kNone) ++attempt_;
    }
    lost_ = fault_ == FaultType::kPermanentLoss;
    if (lost_ || fault_ == FaultType::kTransient) {
      inner_->Close();
      return Status::IoError(lost_ ? "injected worker loss"
                                   : "injected transient failure");
    }
    release_at_ = clock_->NowSeconds() +
                  (fault_ == FaultType::kStraggler
                       ? injector_->straggler_delay_seconds()
                       : 0.0);
    return inner_->Send(line);
  }

  StatusOr<std::optional<LinkReply>> Poll(int timeout_ms) override {
    if (!held_.has_value()) {
      // Take the reply as soon as it arrives, so its busy time is the
      // worker's own on either link kind, then hold it until release.
      SLICELINE_ASSIGN_OR_RETURN(held_, inner_->Poll(timeout_ms));
      if (!held_.has_value()) return held_;
      if (fault_ == FaultType::kStraggler) {
        held_->busy_seconds += injector_->straggler_delay_seconds();
      } else if (fault_ == FaultType::kCorruption) {
        held_->line = Corrupt(held_->line);
      }
    }
    if (clock_->NowSeconds() < release_at_) return std::optional<LinkReply>();
    fault_ = FaultType::kNone;
    return std::exchange(held_, std::nullopt);
  }

  void Close() override {
    fault_ = FaultType::kNone;
    held_.reset();
    inner_->Close();
  }

 private:
  /// Re-encodes an ok payload reply with one value altered and the
  /// worker's original checksum; error replies pass through.
  std::string Corrupt(const std::string& line) const {
    StatusOr<obs::JsonValue> root = obs::ParseJson(line);
    if (!root.ok() || !root->GetBoolOr("ok", false)) return line;
    std::string corrupted;
    const std::string id = root->GetStringOr("id", "");
    if (type_ == serve::WorkerRequestType::kEvalBlock) {
      uint64_t checksum = 0;
      StatusOr<core::ExactEvalResult> partial =
          serve::ParseEvalPayload(*root, &checksum);
      if (!partial.ok()) return line;
      injector_->CorruptPartial(round_, worker_, &partial.value());
      corrupted = serve::OkLine(id, [&](obs::JsonWriter* writer) {
        serve::WriteEvalPayload(writer, *partial, checksum);
      });
    } else {
      StatusOr<serve::ShardBasicStats> stats =
          serve::ParseBasicStatsPayload(*root);
      if (!stats.ok() || stats->columns.sizes.empty()) return line;
      // Out of range, never valid.
      stats->columns.sizes[0] = -stats->columns.sizes[0] - 1;
      corrupted = serve::OkLine(id, [&](obs::JsonWriter* writer) {
        serve::WriteBasicStatsPayload(writer, *stats);
      });
    }
    corrupted.pop_back();  // LF, as a socket reader strips it
    return corrupted;
  }

  std::unique_ptr<WorkerLink> inner_;
  const FaultInjector* injector_;
  int worker_;
  const Clock* clock_;
  bool lost_ = false;
  serve::WorkerRequestType type_ = serve::WorkerRequestType::kHeartbeat;
  FaultType fault_ = FaultType::kNone;  ///< of the request in flight
  double release_at_ = 0.0;             ///< straggler hold, clock seconds
  std::optional<LinkReply> held_;       ///< arrived, not yet released
  int64_t round_ = -2;
  int attempt_ = 0;  ///< faults injected so far in round_
};

}  // namespace

std::unique_ptr<WorkerLink> MakeSocketLink(const WorkerEndpoint& endpoint,
                                           int connect_timeout_ms) {
  return std::make_unique<SocketLink>(endpoint, connect_timeout_ms);
}

std::unique_ptr<WorkerLink> MakeInProcessLink() {
  return std::make_unique<InProcessLink>();
}

std::unique_ptr<WorkerLink> MakeFaultyLink(std::unique_ptr<WorkerLink> inner,
                                           const FaultInjector* injector,
                                           int worker, const Clock* clock) {
  return std::make_unique<FaultyLink>(std::move(inner), injector, worker,
                                      clock);
}

}  // namespace sliceline::dist
