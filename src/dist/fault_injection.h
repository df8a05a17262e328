#ifndef SLICELINE_DIST_FAULT_INJECTION_H_
#define SLICELINE_DIST_FAULT_INJECTION_H_

#include <cstdint>
#include <map>
#include <utility>

#include "core/evaluator.h"

namespace sliceline::dist {

/// Failure taxonomy of the fault-injecting worker link (worker_link.h).
/// Each worker request that returns statistics (basic_stats, eval_block)
/// can independently fail transiently, lose the worker for good, straggle,
/// or ship a corrupted payload back to the coordinator.
enum class FaultType : uint8_t {
  kNone = 0,
  /// The request fails with an I/O error but the worker survives; a retry
  /// (after backoff) re-sends it.
  kTransient = 1,
  /// The worker is gone: this and every later request fails, so the
  /// coordinator declares it lost and reshards onto survivors.
  kPermanentLoss = 2,
  /// The reply is held for `straggler_delay_seconds` of loop time, so the
  /// coordinator's straggler rule catches it; speculation can mask it.
  kStraggler = 3,
  /// One payload value is altered after the worker computed its checksum;
  /// the coordinator's checksum/invariant validation rejects the reply.
  kCorruption = 4,
};

/// Random fault rates plus determinism controls. All draws are pure hashes
/// of (seed, round, worker, attempt), so a given plan produces the same
/// fault schedule on every run -- the property the deterministic-stats
/// tests rely on.
struct FaultPlan {
  uint64_t seed = 0;
  /// Per-(round, worker, attempt) probabilities in [0, 1]. At most one
  /// fault fires per draw; they are tested in the order loss, transient,
  /// corruption, straggler.
  double loss_rate = 0.0;
  double transient_rate = 0.0;
  double corruption_rate = 0.0;
  double straggler_rate = 0.0;
  /// How long an injected straggler's reply is held. The default is twice
  /// DistOptions::straggler_after_ms, so the straggler rule fires first.
  double straggler_delay_seconds = 2.0;

  bool HasRandomFaults() const {
    return loss_rate > 0.0 || transient_rate > 0.0 || corruption_rate > 0.0 ||
           straggler_rate > 0.0;
  }
};

/// Deterministic, seedable fault source behind the fault-injecting link.
/// Supports both rate-based random schedules (FaultPlan) and exact scripted
/// faults at a given (round, worker) for unit tests. Random faults only
/// fire on a worker's first attempt of a round unless re-drawn on retry
/// (transient/corruption re-draw, so an unlucky seed can exhaust the retry
/// budget — by design, that is what graceful degradation is for).
class FaultInjector {
 public:
  /// Disabled injector: every draw returns kNone.
  FaultInjector() = default;
  explicit FaultInjector(const FaultPlan& plan);

  /// Schedules an exact fault for worker `worker`'s first request of
  /// evaluation round `round` (round -1 is cluster setup's basic_stats).
  /// Overwrites any previous script for the same cell.
  void Script(int64_t round, int worker, FaultType type);

  bool enabled() const { return plan_.HasRandomFaults() || !scripted_.empty(); }

  /// Draws the fault decision for worker `worker`, logical round `round`,
  /// retry attempt `attempt` (0 = first try). Pure function of the seed and
  /// arguments: order- and thread-independent.
  FaultType Sample(int64_t round, int worker, int attempt) const;

  /// How long an injected straggler's reply is held.
  double straggler_delay_seconds() const {
    return plan_.straggler_delay_seconds;
  }

  /// Deterministically perturbs a worker's partial result in a way that a
  /// payload checksum (and usually the size invariants too) will catch.
  void CorruptPartial(int64_t round, int worker,
                      core::ExactEvalResult* partial) const;

 private:
  FaultPlan plan_;
  std::map<std::pair<int64_t, int>, FaultType> scripted_;
};

/// Order-sensitive FNV-1a style checksum over a partial's payload bytes.
/// The coordinator validates every gathered partial against the checksum
/// the worker took before transmission.
uint64_t ChecksumPartial(const core::ExactEvalResult& partial);

}  // namespace sliceline::dist

#endif  // SLICELINE_DIST_FAULT_INJECTION_H_
