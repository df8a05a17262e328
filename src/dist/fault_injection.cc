#include "dist/fault_injection.h"

#include <bit>
#include <cstddef>

namespace sliceline::dist {

namespace {

/// splitmix64 finalizer: the same mixer the repo's Rng uses for seeding,
/// applied here as a stateless hash so fault draws are order-independent.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a hashed cell id.
double HashToUnit(uint64_t seed, int64_t round, int worker, int attempt,
                  uint64_t salt) {
  uint64_t h = Mix64(seed ^ salt);
  h = Mix64(h ^ static_cast<uint64_t>(round));
  h = Mix64(h ^ (static_cast<uint64_t>(worker) << 32 |
                 static_cast<uint32_t>(attempt)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan) : plan_(plan) {}

void FaultInjector::Script(int64_t round, int worker, FaultType type) {
  scripted_[{round, worker}] = type;
}

FaultType FaultInjector::Sample(int64_t round, int worker, int attempt) const {
  if (attempt == 0) {
    auto it = scripted_.find({round, worker});
    if (it != scripted_.end()) return it->second;
  }
  if (!plan_.HasRandomFaults()) return FaultType::kNone;
  // One draw per fault class; the first that fires wins. Permanent loss and
  // stragglers only fire on the first attempt (a retry targets a different
  // simulated container); transient failures and corruption re-draw on every
  // attempt so an unlucky seed can exhaust the retry budget.
  if (attempt == 0 &&
      HashToUnit(plan_.seed, round, worker, attempt, 0x105f) < plan_.loss_rate) {
    return FaultType::kPermanentLoss;
  }
  if (HashToUnit(plan_.seed, round, worker, attempt, 0x7247) <
      plan_.transient_rate) {
    return FaultType::kTransient;
  }
  if (HashToUnit(plan_.seed, round, worker, attempt, 0xc023) <
      plan_.corruption_rate) {
    return FaultType::kCorruption;
  }
  if (attempt == 0 && HashToUnit(plan_.seed, round, worker, attempt, 0x57a6) <
                          plan_.straggler_rate) {
    return FaultType::kStraggler;
  }
  return FaultType::kNone;
}

void FaultInjector::CorruptPartial(int64_t round, int worker,
                                   core::ExactEvalResult* partial) const {
  if (partial->sizes.empty()) return;
  const uint64_t h = Mix64(plan_.seed ^ Mix64(static_cast<uint64_t>(round)) ^
                           static_cast<uint64_t>(worker));
  const size_t i = static_cast<size_t>(h % partial->sizes.size());
  // Negate and offset one size entry: detectable by both the payload
  // checksum and the non-negativity invariant.
  partial->sizes[i] = -partial->sizes[i] - 1;
  if (!partial->error_sums.empty()) {
    const size_t j = static_cast<size_t>(h % partial->error_sums.size());
    partial->error_sums[j].Add(1e9);
  }
}

uint64_t ChecksumPartial(const core::ExactEvalResult& partial) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  for (int64_t size : partial.sizes) mix(static_cast<uint64_t>(size));
  h = Mix64(h);
  for (const linalg::ExactSum& sum : partial.error_sums) {
    mix(static_cast<uint64_t>(static_cast<int64_t>(sum.anchor())));
    mix(sum.digits().size());
    for (uint32_t digit : sum.digits()) mix(digit);
  }
  h = Mix64(h);
  for (double max : partial.max_errors) mix(std::bit_cast<uint64_t>(max));
  return Mix64(h);
}

}  // namespace sliceline::dist
