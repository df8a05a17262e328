#ifndef SLICELINE_DIST_COORDINATOR_H_
#define SLICELINE_DIST_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/evaluator.h"
#include "core/sliceline.h"
#include "dist/fault_injection.h"
#include "dist/partition.h"
#include "dist/worker_link.h"
#include "obs/json_parse.h"
#include "obs/trace_merge.h"
#include "serve/worker_protocol.h"

namespace sliceline::dist {

/// Configuration of a distributed run. The fleet is either `endpoints`
/// (sliceline_worker processes over sockets) or `local_workers` in-process
/// workers; Create() requires exactly one. Everything else applies to both.
struct DistOptions {
  std::vector<WorkerEndpoint> endpoints;
  int local_workers = 0;

  /// Seeded fault schedule, applied by a link decorator (worker_link.h);
  /// all-zero rates (the default) disable injection.
  FaultPlan fault;

  /// Consecutive transient failures a task tolerates on one worker before
  /// that worker is declared lost (its shards reshard onto survivors and
  /// the task restarts its budget there).
  int max_retries = 3;
  /// Exponential backoff before retry k (1-based):
  /// backoff_base_seconds * backoff_multiplier^(k-1), applied per worker
  /// link so healthy links keep flowing while one backs off.
  double backoff_base_seconds = 0.05;
  double backoff_multiplier = 2.0;
  /// An eval_block in flight longer than straggler_after_ms gets a backup
  /// copy on an idle survivor; the first valid reply wins.
  bool speculative_execution = true;
  /// Lost-worker fraction beyond which the run degrades to single-node.
  double max_lost_fraction = 0.5;

  int connect_timeout_ms = 1000;   ///< per connect() attempt
  int request_timeout_ms = 5000;   ///< round-trip deadline; expiry = transient
  int straggler_after_ms = 1000;
  /// Idle connected workers are probed at this period so a silently dead
  /// worker is noticed before work is routed to it.
  int heartbeat_interval_ms = 500;

  /// Largest slice block per eval_block request; big sets are split so a
  /// lost request forfeits bounded work.
  int64_t max_block_slices = 256;
  /// Target cells (rows x features) per load_shard chunk; keeps every
  /// shard-transfer line well under kWorkerMaxLineBytes.
  int64_t load_chunk_cells = 1 << 16;

  /// Nonzero enables fleet tracing (socket fleets only): every worker
  /// request carries this distributed-trace id (plus the round number as
  /// the parent span), workers record spans while handling our requests,
  /// and the coordinator drains them back -- with metrics-counter deltas --
  /// via get_spans at round boundaries (see TakeObsBundle()).
  uint64_t trace_id = 0;
};

/// Accumulated communication/work accounting across evaluation rounds. The
/// Figure 7(b) benchmark reports the derived wall-clock (critical path +
/// modeled communication).
struct DistCostStats {
  int64_t rounds = 0;             ///< evaluation rounds plus block retries
  int64_t broadcast_bytes = 0;    ///< request bytes on the wire
  int64_t gather_bytes = 0;       ///< reply bytes on the wire
  double worker_busy_seconds = 0; ///< summed busy time of every eval reply
  /// Sum over rounds of the slowest link's busy time plus its backoff.
  double critical_path_seconds = 0;
  /// The wire bytes over a ~10 GbE interconnect plus 5 ms of broadcast and
  /// barrier latency per round.
  double EstimatedCommSeconds() const {
    return static_cast<double>(broadcast_bytes + gather_bytes) / 1.25e9 +
           static_cast<double>(rounds) * 0.005;
  }
};

/// Recovery actions taken across the run. On an in-process fleet every
/// counter is a pure function of the FaultPlan seed: faults are hash draws
/// and the recovery loop runs on a simulated clock.
struct DistFaultStats {
  int64_t transient_failures = 0;  ///< failed requests survived
  int64_t retries = 0;             ///< re-sent requests (per block)
  int64_t backoff_events = 0;      ///< retries that waited
  double backoff_seconds = 0.0;    ///< total backoff
  int64_t stragglers = 0;          ///< blocks past straggler_after_ms
  int64_t speculative_reexecutions = 0;  ///< backup copies launched
  int64_t corrupted_partials = 0;  ///< checksum/invariant rejections
  int64_t workers_lost = 0;        ///< permanent losses
  int64_t reshards = 0;            ///< shards adopted by survivors
  bool fallback_local = false;     ///< degraded to single-node execution

  bool operator==(const DistFaultStats&) const = default;

  /// One-line human-readable summary for the CLI and benchmarks.
  std::string Summary() const;
};

/// Distributed slice evaluation (Section 4.4's data-parallel formulation):
/// each worker owns a row shard of the input (shipped over the worker
/// protocol), every Evaluate() broadcasts candidate blocks to the shard
/// owners, and their partial (ss, se, sm) statistics are merged with (+, +,
/// max) as they arrive. Error sums travel as exact integers
/// (linalg::ExactSum) and round once after the merge, so any fleet, fault
/// schedule, arrival order or fallback gives the doubles of a single-node
/// SliceEvaluator on every error vector. One recovery loop (RunTasks) serves
/// both fleet kinds: retry with per-link backoff, loss + reshard,
/// speculation, checksum and range validation, and local fallback past
/// max_lost_fraction. The loop reads time from a Clock
/// chosen by the fleet kind: the steady clock for sockets, a simulated
/// clock the loop advances instead of sleeping for in-process workers.
/// See "Distributed execution and fault tolerance" in DESIGN.md.
class Coordinator : public core::EvaluatorBackend {
 public:
  /// Validates inputs, partitions the rows, then enlists every worker,
  /// ships the shards, and merges the level-1 statistics through the
  /// recovery loop, so Create only fails on invalid input, never on a flaky
  /// cluster.
  /// Faults come from `injector` when it is enabled (tests script exact
  /// faults on it; setup requests are round -1), else from options.fault.
  static StatusOr<std::unique_ptr<Coordinator>> Create(
      const data::IntMatrix& x0, const std::vector<double>& errors,
      const DistOptions& options, FaultInjector injector = {});

  ~Coordinator() override;

  StatusOr<core::EvalResult> Evaluate(
      const core::SliceSet& set,
      const core::SliceLineConfig& config) const override;

  const std::vector<int64_t>& basic_sizes() const override {
    return basic_sizes_;
  }
  const std::vector<double>& basic_error_sums() const override {
    return basic_error_sums_;
  }
  const std::vector<double>& basic_max_errors() const override {
    return basic_max_errors_;
  }
  int64_t n() const override { return n_; }
  double total_error() const override { return total_error_; }
  const data::FeatureOffsets& offsets() const override { return offsets_; }

  int alive_workers() const { return alive_count_; }
  const DistCostStats& cost() const { return cost_; }
  const DistFaultStats& faults() const { return faults_; }

  /// Moves out everything collected for the fleet trace and run report:
  /// per-worker spans (steady-clock offsets estimated from the minimum-RTT
  /// now_us round-trip samples), per-worker counter deltas, and the
  /// coordinator's cost/fault numbers as the flat report sections
  /// "dist_cost" and "dist_faults". Meaningful after the run; empty worker
  /// list when tracing was off.
  obs::DistObsBundle TakeObsBundle();

  /// Test hook invoked at the start of every Evaluate() with its round
  /// number -- the chaos harness kills / suspends / restarts worker
  /// processes here, i.e. exactly at level boundaries.
  void set_round_hook(std::function<void(int64_t)> hook) {
    round_hook_ = std::move(hook);
  }

 private:
  /// One unit of the recovery loop: a request on one shard (an eval block,
  /// or the shard's basic_stats at setup), re-sent until a reply is valid.
  struct Task {
    int64_t shard = 0;
    int64_t begin = 0;  ///< eval blocks: slice range [begin, end)
    int64_t end = 0;
    int attempts = 0;   ///< transient failures on the current owner
    bool speculated = false;
    bool done = false;
  };

  /// Coordinator-side state of one worker link.
  struct Link {
    std::unique_ptr<WorkerLink> transport;
    std::string label;            ///< address for logs
    bool connected = false;
    bool alive = true;
    std::string session;          ///< last enlisted worker session
    std::set<int64_t> loaded;     ///< shards confirmed loaded this session
    double ready_at = 0.0;        ///< backoff gate (clock seconds)
    double last_heartbeat = 0.0;  ///< last successful exchange
    int64_t next_request = 0;     ///< correlation-id counter

    // Fleet tracing. Survives session changes except the counter baseline
    // (a restarted worker restarts its counters at zero).
    int64_t os_pid = 0;
    int64_t clock_offset_us = 0;  ///< worker steady clock minus ours
    int64_t best_rtt_us = std::numeric_limits<int64_t>::max();
    std::vector<obs::RemoteSpan> spans;
    std::map<std::string, double> counter_deltas;
    std::map<std::string, double> counter_baseline;
  };

  Coordinator(const data::IntMatrix& x0, const std::vector<double>& errors,
              data::FeatureOffsets offsets, const DistOptions& options,
              FaultInjector injector);

  /// Connects, enlists, ships shards, and merges basic statistics.
  void SetupCluster();
  /// The recovery loop: sends each task to its shard's current owner
  /// (`build` fills in the request) until `accept` takes a reply, with
  /// per-link backoff, loss + reshard, speculation, timeouts and liveness
  /// probes; `accept` returning false counts a corrupted partial. Adds the
  /// round's slowest link to the critical path. Returns false when the run
  /// must degrade, an error when `ctx` asks to stop.
  StatusOr<bool> RunTasks(
      int64_t round, std::vector<Task> tasks,
      const std::function<void(const Task&, serve::WorkerRequest*)>& build,
      const std::function<bool(const Task&, const obs::JsonValue&)>& accept,
      const RunContext* ctx) const;
  /// The "dist_cost" and "dist_faults" report sections.
  std::map<std::string, std::map<std::string, double>> Sections() const;
  /// Mirrors Sections() into registry gauges ("dist/rounds", ...); the
  /// structs stay the one source of truth. No-op when metrics are off.
  void Publish() const;
  /// Switches to (or stays on) the degraded single-node path and returns
  /// its evaluator.
  const core::SliceEvaluator& Degrade() const;

  /// Waits `seconds` of loop time: sleeps on a socket fleet, advances the
  /// simulated clock of an in-process fleet.
  void Idle(double seconds) const;
  /// Stamps a fresh correlation id and the trace id on `request`, sends
  /// it, and accounts its wire bytes.
  Status Send(Link& link, serve::WorkerRequest* request) const;
  /// Synchronous request/response on one link; validates the ok/error
  /// shape and the echoed correlation id, and accounts wire bytes.
  StatusOr<obs::JsonValue> RoundTrip(Link& link, serve::WorkerRequest request,
                                     int timeout_ms) const;
  /// Connects + enlists if needed; a changed worker session (process
  /// restart) invalidates every shard the coordinator believed loaded.
  Status EnsureReady(Link& link) const;
  /// has_shard probe, then chunked load_shard transfer if needed.
  Status EnsureShardLoaded(Link& link, int64_t shard) const;
  /// Drops the link's connection; the next use reconnects and re-enlists.
  void Disconnect(Link& link) const;

  /// Marks a worker permanently lost and reshards its shards onto
  /// survivors. Returns false when the loss crosses max_lost_fraction (the
  /// caller must degrade).
  bool LoseWorker(size_t worker) const;
  void ReshardLostWorkers() const;

  /// get_spans round-trip on worker `w`: appends trace-matching spans and
  /// (unless `baseline`) counter deltas to links_[w]. In baseline mode
  /// the current counter values only (re)set the per-session baseline --
  /// run at the end of setup so pre-existing counts of a reused worker are
  /// not attributed to this job.
  Status CollectWorkerObs(size_t w, bool baseline) const;
  /// Best-effort CollectWorkerObs sweep over the connected fleet (end of
  /// setup and every round boundary); no-op when tracing is off.
  void CollectFleetObs(bool baseline) const;

  DistOptions options_;
  data::FeatureOffsets offsets_;
  std::vector<RowRange> ranges_;  ///< shard boundaries; never change
  std::string dataset_hash_;
  int64_t n_ = 0;
  double total_error_ = 0.0;
  std::vector<int64_t> basic_sizes_;
  std::vector<double> basic_error_sums_;
  std::vector<double> basic_max_errors_;

  /// Full input copy backing the graceful-degradation path.
  data::IntMatrix full_x0_;
  std::vector<double> full_errors_;

  FaultInjector injector_;
  /// The loop's time source: owned simulated clock for in-process fleets,
  /// the steady clock for socket fleets.
  std::unique_ptr<SimulatedClock> simulated_clock_;
  const Clock* clock_ = nullptr;

  std::function<void(int64_t)> round_hook_;

  mutable std::vector<Link> links_;
  mutable std::vector<int> shard_owner_;
  mutable int alive_count_ = 0;
  mutable std::unique_ptr<core::SliceEvaluator> fallback_;
  mutable int64_t next_round_ = 0;
  mutable int64_t eval_slices_accepted_ = 0;
  mutable DistCostStats cost_;
  mutable DistFaultStats faults_;
};

/// Runs the full SliceLine enumeration on a distributed fleet; writes the
/// cost and recovery statistics and the observability bundle (see
/// Coordinator::TakeObsBundle) to the non-null out-params. The outcome
/// records cluster degradation.
StatusOr<core::SliceLineResult> RunSliceLineDistributed(
    const data::IntMatrix& x0, const std::vector<double>& errors,
    const core::SliceLineConfig& config, const DistOptions& options,
    DistCostStats* cost_out = nullptr, DistFaultStats* faults_out = nullptr,
    obs::DistObsBundle* obs_out = nullptr);

}  // namespace sliceline::dist

#endif  // SLICELINE_DIST_COORDINATOR_H_
