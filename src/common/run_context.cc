#include "common/run_context.h"

#include <chrono>
#include <cstring>
#include <sstream>

namespace sliceline {

double SteadyClock::NowSeconds() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const SteadyClock* SteadyClock::Default() {
  static const SteadyClock clock;
  return &clock;
}

uint64_t SimulatedClock::Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double SimulatedClock::FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double SimulatedClock::NowSeconds() const {
  if (advance_per_query_ == 0.0) {
    return FromBits(now_bits_.load(std::memory_order_acquire));
  }
  // Auto-advance: each query observes the pre-advance time and moves the
  // clock forward, so N checks consume N * advance_per_query_ seconds.
  uint64_t observed = now_bits_.load(std::memory_order_acquire);
  for (;;) {
    const double now = FromBits(observed);
    const uint64_t next = Bits(now + advance_per_query_);
    if (now_bits_.compare_exchange_weak(observed, next,
                                        std::memory_order_acq_rel)) {
      return now;
    }
  }
}

void SimulatedClock::Advance(double seconds) {
  uint64_t observed = now_bits_.load(std::memory_order_acquire);
  for (;;) {
    const uint64_t next = Bits(FromBits(observed) + seconds);
    if (now_bits_.compare_exchange_weak(observed, next,
                                        std::memory_order_acq_rel)) {
      return;
    }
  }
}

MemoryBudget::MemoryBudget(int64_t limit_bytes, double soft_fraction)
    : limit_(limit_bytes > 0 ? limit_bytes : 0) {
  if (soft_fraction < 0.0) soft_fraction = 0.0;
  if (soft_fraction > 1.0) soft_fraction = 1.0;
  soft_limit_ = static_cast<int64_t>(static_cast<double>(limit_) *
                                     soft_fraction);
}

void MemoryBudget::Charge(int64_t bytes) {
  if (bytes <= 0) return;
  const int64_t now = used_.fetch_add(bytes, std::memory_order_relaxed) +
                      bytes;
  int64_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

void MemoryBudget::Release(int64_t bytes) {
  if (bytes <= 0) return;
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

namespace {
thread_local MemoryBudget* t_current_budget = nullptr;
}  // namespace

MemoryBudget* CurrentMemoryBudget() { return t_current_budget; }

ScopedMemoryBudget::ScopedMemoryBudget(MemoryBudget* budget)
    : previous_(t_current_budget) {
  t_current_budget = budget;
}

ScopedMemoryBudget::~ScopedMemoryBudget() { t_current_budget = previous_; }

MemoryCharge::MemoryCharge(int64_t bytes)
    : budget_(t_current_budget), bytes_(bytes > 0 ? bytes : 0) {
  if (budget_ != nullptr) budget_->Charge(bytes_);
}

MemoryCharge::MemoryCharge(const MemoryCharge& other)
    : budget_(other.budget_), bytes_(other.bytes_) {
  if (budget_ != nullptr) budget_->Charge(bytes_);
}

MemoryCharge& MemoryCharge::operator=(const MemoryCharge& other) {
  if (this == &other) return *this;
  ReleaseCharge();
  budget_ = other.budget_;
  bytes_ = other.bytes_;
  if (budget_ != nullptr) budget_->Charge(bytes_);
  return *this;
}

MemoryCharge::MemoryCharge(MemoryCharge&& other) noexcept
    : budget_(other.budget_), bytes_(other.bytes_) {
  other.budget_ = nullptr;
  other.bytes_ = 0;
}

MemoryCharge& MemoryCharge::operator=(MemoryCharge&& other) noexcept {
  if (this == &other) return *this;
  ReleaseCharge();
  budget_ = other.budget_;
  bytes_ = other.bytes_;
  other.budget_ = nullptr;
  other.bytes_ = 0;
  return *this;
}

MemoryCharge::~MemoryCharge() { ReleaseCharge(); }

void MemoryCharge::Resize(int64_t bytes) {
  if (bytes < 0) bytes = 0;
  if (budget_ == nullptr) {
    // Adopt the ambient budget if one appeared since construction; a charge
    // created outside any scope stays unaccounted.
    budget_ = t_current_budget;
    if (budget_ == nullptr) {
      bytes_ = bytes;
      return;
    }
    budget_->Charge(bytes);
    bytes_ = bytes;
    return;
  }
  if (bytes > bytes_) {
    budget_->Charge(bytes - bytes_);
  } else if (bytes < bytes_) {
    budget_->Release(bytes_ - bytes);
  }
  bytes_ = bytes;
}

void MemoryCharge::ReleaseCharge() {
  if (budget_ != nullptr && bytes_ > 0) budget_->Release(bytes_);
  budget_ = nullptr;
  bytes_ = 0;
}

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kDeadlineExceeded: return "deadline-exceeded";
    case StopReason::kBudgetExhausted: return "budget-exhausted";
  }
  return "unknown";
}

Status StopReasonToStatus(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return Status::OK();
    case StopReason::kCancelled:
      return Status::Cancelled("run cancelled");
    case StopReason::kDeadlineExceeded:
      return Status::DeadlineExceeded("run deadline exceeded");
    case StopReason::kBudgetExhausted:
      return Status::ResourceExhausted("memory budget exhausted");
  }
  return Status::Internal("unknown stop reason");
}

StopReason StopReasonFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kCancelled:
      return StopReason::kCancelled;
    case StatusCode::kDeadlineExceeded:
      return StopReason::kDeadlineExceeded;
    case StatusCode::kResourceExhausted:
      return StopReason::kBudgetExhausted;
    default:
      return StopReason::kNone;
  }
}

const char* RunOutcome::TerminationName(Termination t) {
  switch (t) {
    case Termination::kCompleted: return "completed";
    case Termination::kDegraded: return "degraded";
    case Termination::kDeadlineExceeded: return "deadline-exceeded";
    case Termination::kCancelled: return "cancelled";
    case Termination::kBudgetExhausted: return "budget-exhausted";
  }
  return "unknown";
}

std::string RunOutcome::Summary() const {
  std::ostringstream os;
  os << TerminationName(termination);
  if (resumed_from_checkpoint) os << ", resumed from checkpoint";
  if (degradation_steps > 0) {
    os << ", " << degradation_steps << " degradation step"
       << (degradation_steps > 1 ? "s" : "");
    if (sigma_raised_to > 0) os << " (sigma raised to " << sigma_raised_to
                                << ")";
    if (candidates_capped > 0) os << ", " << candidates_capped
                                  << " candidates capped";
  }
  if (partial && stopped_at_level > 0) {
    os << ", stopped at level " << stopped_at_level;
  }
  if (peak_memory_bytes > 0) {
    os << ", peak memory " << peak_memory_bytes << " bytes";
  }
  if (dist_fallback_local) os << ", distributed fallback to local";
  return os.str();
}

bool RunOutcome::WellFormed() const {
  // Any run that was degraded or truncated may miss slices an ungoverned
  // run finds, so partial must track the termination kind exactly.
  if (partial != (termination != Termination::kCompleted)) return false;
  if (degradation_steps < 0 || sigma_raised_to < 0 ||
      candidates_capped < 0 || stopped_at_level < 0 ||
      peak_memory_bytes < 0 || stream_candidates_cached < 0 ||
      stream_candidates_delta < 0 || stream_candidates_full < 0) {
    return false;
  }
  if (degradation_steps == 0 &&
      (sigma_raised_to > 0 || candidates_capped > 0)) {
    return false;
  }
  if (termination == Termination::kDegraded && degradation_steps == 0) {
    return false;
  }
  return true;
}

void RunContext::SetDeadlineAfterSeconds(double seconds) {
  deadline_seconds_ = clock_->NowSeconds() + seconds;
}

double RunContext::RemainingSeconds() const {
  if (!has_deadline()) return std::numeric_limits<double>::infinity();
  return deadline_seconds_ - clock_->NowSeconds();
}

StopReason RunContext::CheckStop() const {
  if (token_.IsCancelled()) return StopReason::kCancelled;
  if (has_deadline() && clock_->NowSeconds() >= deadline_seconds_) {
    return StopReason::kDeadlineExceeded;
  }
  if (budget_ != nullptr && budget_->OverHardLimit()) {
    return StopReason::kBudgetExhausted;
  }
  return StopReason::kNone;
}

}  // namespace sliceline
