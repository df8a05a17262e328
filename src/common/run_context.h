#ifndef SLICELINE_COMMON_RUN_CONTEXT_H_
#define SLICELINE_COMMON_RUN_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>

#include "common/status.h"

namespace sliceline {

/// Time source abstraction for deadlines. Production code uses the steady
/// wall clock; tests and the fuzzer inject a SimulatedClock so "the deadline
/// fires after the second level" is a deterministic statement instead of a
/// race against the host scheduler.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Monotonic seconds since an arbitrary epoch.
  virtual double NowSeconds() const = 0;
};

/// std::chrono::steady_clock-backed default time source.
class SteadyClock : public Clock {
 public:
  double NowSeconds() const override;
  /// Shared process-wide instance.
  static const SteadyClock* Default();
};

/// Deterministic manual clock. Each NowSeconds() query optionally advances
/// time by a fixed step, so a run "consumes" simulated time at every
/// governance check and a deadline fires at a reproducible point of the
/// enumeration regardless of host speed.
class SimulatedClock : public Clock {
 public:
  explicit SimulatedClock(double start_seconds = 0.0,
                          double advance_per_query_seconds = 0.0)
      : now_bits_(Bits(start_seconds)),
        advance_per_query_(advance_per_query_seconds) {}

  double NowSeconds() const override;

  /// Moves time forward by `seconds` (thread-safe).
  void Advance(double seconds);

 private:
  static uint64_t Bits(double v);
  static double FromBits(uint64_t bits);

  mutable std::atomic<uint64_t> now_bits_;
  double advance_per_query_;
};

/// Cooperative cancellation flag shared between a controller thread (which
/// calls Cancel()) and the enumeration/evaluation threads (which poll
/// IsCancelled() at batch boundaries and inside long loops). Cancellation is
/// sticky and idempotent.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool IsCancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Byte-accounted memory budget. Allocation sites (CSR/dense matrices in
/// linalg/, per-level frontier buffers in the engines) charge and release
/// live bytes; the engines poll the two pressure levels at level and
/// candidate-batch boundaries:
///   * over the soft limit (soft_fraction * limit): tighten pruning
///     (degradation ladder) so future levels allocate less;
///   * over the hard limit: stop and return best-so-far partial results.
/// Charging never blocks and never fails -- an over-budget charge simply
/// raises the pressure flags, keeping allocation sites simple and the
/// failure path cooperative.
class MemoryBudget {
 public:
  /// `limit_bytes <= 0` means unlimited (accounting only).
  explicit MemoryBudget(int64_t limit_bytes, double soft_fraction = 0.8);

  void Charge(int64_t bytes);
  void Release(int64_t bytes);

  int64_t used_bytes() const { return used_.load(std::memory_order_relaxed); }
  int64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  int64_t limit_bytes() const { return limit_; }
  int64_t soft_limit_bytes() const { return soft_limit_; }

  bool OverSoftLimit() const {
    return limit_ > 0 && used_bytes() > soft_limit_;
  }
  bool OverHardLimit() const { return limit_ > 0 && used_bytes() > limit_; }

 private:
  std::atomic<int64_t> used_{0};
  std::atomic<int64_t> peak_{0};
  int64_t limit_;
  int64_t soft_limit_;
};

/// Ambient per-thread budget that allocation sites charge implicitly, so the
/// linalg matrix classes stay free of governance plumbing. The engines
/// install the run's budget for the duration of the run via
/// ScopedMemoryBudget; worker threads that never install one charge nothing.
MemoryBudget* CurrentMemoryBudget();

/// RAII installer of the ambient thread-local budget (nestable; restores the
/// previous budget on destruction).
class ScopedMemoryBudget {
 public:
  explicit ScopedMemoryBudget(MemoryBudget* budget);
  ~ScopedMemoryBudget();
  ScopedMemoryBudget(const ScopedMemoryBudget&) = delete;
  ScopedMemoryBudget& operator=(const ScopedMemoryBudget&) = delete;

 private:
  MemoryBudget* previous_;
};

/// RAII charge of `bytes` against the ambient budget at construction time.
/// Copies re-charge the same byte count against the same budget (the copy is
/// live memory too); moves transfer the charge; destruction releases it.
/// Held as a member, this gives a class live-byte accounting without
/// touching its own special member functions.
class MemoryCharge {
 public:
  MemoryCharge() = default;
  explicit MemoryCharge(int64_t bytes);

  MemoryCharge(const MemoryCharge& other);
  MemoryCharge& operator=(const MemoryCharge& other);
  MemoryCharge(MemoryCharge&& other) noexcept;
  MemoryCharge& operator=(MemoryCharge&& other) noexcept;
  ~MemoryCharge();

  /// Re-sizes the charge in place (e.g. after a container grew).
  void Resize(int64_t bytes);

  int64_t bytes() const { return bytes_; }

 private:
  void ReleaseCharge();

  MemoryBudget* budget_ = nullptr;
  int64_t bytes_ = 0;
};

/// Why a governed run had to stop before its natural end.
enum class StopReason : uint8_t {
  kNone = 0,
  kCancelled,
  kDeadlineExceeded,
  kBudgetExhausted,
};

const char* StopReasonName(StopReason reason);

/// Maps a stop reason onto the matching governance Status (kNone -> OK).
/// Deep loops (evaluator blocks, kernel strides) return this to unwind to
/// the engine, which recognizes it via IsGovernanceStatus and packages
/// best-so-far results instead of treating it as an error.
Status StopReasonToStatus(StopReason reason);

/// Inverse mapping for engines unwinding a governance Status from a deep
/// loop (non-governance codes map to kNone).
StopReason StopReasonFromStatus(const Status& status);

/// Structured description of how a governed run ended. Every engine fills
/// one into SliceLineResult::outcome: a bare abort is never the answer to
/// resource pressure -- the caller always gets the best-so-far top-K plus
/// this record of what was and was not explored.
struct RunOutcome {
  enum class Termination : uint8_t {
    kCompleted = 0,         ///< ran to the natural end, exact results
    kDegraded,              ///< finished, but pruning was tightened en route
    kDeadlineExceeded,      ///< stopped by the deadline
    kCancelled,             ///< stopped by cooperative cancellation
    kBudgetExhausted,       ///< stopped by the hard memory limit
  };

  Termination termination = Termination::kCompleted;
  /// True iff the reported top-K may differ from an ungoverned run (any
  /// termination other than kCompleted).
  bool partial = false;
  /// Degradation-ladder actions taken (0 = none).
  int degradation_steps = 0;
  /// Effective sigma after degradation; 0 when never raised.
  int64_t sigma_raised_to = 0;
  /// Candidates dropped by the per-level degradation cap.
  int64_t candidates_capped = 0;
  /// Level the run stopped inside/after when partial; 0 otherwise.
  int stopped_at_level = 0;
  /// True when the run was seeded from a checkpoint.
  bool resumed_from_checkpoint = false;
  /// Peak governed memory use observed (0 when no budget installed).
  int64_t peak_memory_bytes = 0;
  /// True when a distributed run lost too many workers (or exhausted its
  /// retry budget) and finished on the coordinator's local fallback
  /// evaluator. The results are still exact -- the fallback evaluates the
  /// full matrix -- so this does not make the run partial; it records that
  /// the cluster, not the search, degraded.
  bool dist_fallback_local = false;

  /// Streaming re-evaluation decisions (all zero for non-streaming runs).
  /// Per candidate the incremental evaluator either reused a fully
  /// up-to-date cached statistic, continued a cached statistic over just
  /// the appended rows, or recomputed from row 0.
  int64_t stream_candidates_cached = 0;
  int64_t stream_candidates_delta = 0;
  int64_t stream_candidates_full = 0;

  static const char* TerminationName(Termination t);

  /// One-line summary ("degraded: sigma raised to 64, 120 candidates
  /// capped, stopped at level 3").
  std::string Summary() const;

  /// Structural consistency: partial <=> termination != kCompleted, counters
  /// non-negative, stopped_at_level set iff partial. The governance fuzzer
  /// asserts this on every outcome.
  bool WellFormed() const;
};

/// Per-run governance handle threaded through the engines (via
/// SliceLineConfig::run_context), the evaluators, the thread pool, and the
/// distributed executor. Owns the cancellation token; borrows the clock and
/// the memory budget (caller-owned, so one budget can govern several runs).
/// A default-constructed RunContext imposes nothing.
class RunContext {
 public:
  RunContext() : clock_(SteadyClock::Default()) {}

  /// Replaces the time source (borrowed; must outlive the context).
  void set_clock(const Clock* clock) { clock_ = clock; }
  const Clock* clock() const { return clock_; }

  /// Sets the deadline `seconds` from now on the installed clock.
  void SetDeadlineAfterSeconds(double seconds);
  /// Absolute deadline in the installed clock's epoch.
  void set_deadline_seconds(double absolute_seconds) {
    deadline_seconds_ = absolute_seconds;
  }
  bool has_deadline() const {
    return deadline_seconds_ != std::numeric_limits<double>::infinity();
  }
  /// Seconds until the deadline (+inf when none); negative once expired.
  double RemainingSeconds() const;

  CancellationToken& cancellation() { return token_; }
  const CancellationToken& cancellation() const { return token_; }

  /// Installs a caller-owned memory budget (nullptr detaches).
  void set_memory_budget(MemoryBudget* budget) { budget_ = budget; }
  MemoryBudget* memory_budget() const { return budget_; }

  /// Polls all stop conditions; precedence: cancellation, deadline, hard
  /// memory limit. This is the check engines run at level boundaries,
  /// candidate-batch boundaries, and (strided) inside long kernel loops.
  StopReason CheckStop() const;
  bool ShouldStop() const { return CheckStop() != StopReason::kNone; }

 private:
  const Clock* clock_;
  double deadline_seconds_ = std::numeric_limits<double>::infinity();
  CancellationToken token_;
  MemoryBudget* budget_ = nullptr;
};

}  // namespace sliceline

#endif  // SLICELINE_COMMON_RUN_CONTEXT_H_
