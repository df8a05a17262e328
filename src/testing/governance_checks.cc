#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "testing/checks.h"

namespace sliceline::testing {

namespace {

/// Structural sanity of a governed result: the outcome record is
/// well-formed and the top-K is sorted by descending score with finite
/// statistics. Returns "" when fine.
std::string ValidateGovernedResult(const core::SliceLineResult& result,
                                   const char* engine,
                                   const char* scenario) {
  std::ostringstream out;
  out << "[governance/" << scenario << "/" << engine << "] ";
  if (!result.outcome.WellFormed()) {
    out << "malformed RunOutcome: " << result.outcome.Summary();
    return out.str();
  }
  for (size_t i = 0; i < result.top_k.size(); ++i) {
    const core::SliceStats& stats = result.top_k[i].stats;
    if (!std::isfinite(stats.score) || !std::isfinite(stats.error_sum) ||
        !std::isfinite(stats.max_error) || stats.size < 0) {
      out << "non-finite stats in top-K rank " << i;
      return out.str();
    }
    if (i > 0 && result.top_k[i - 1].stats.score < stats.score) {
      out << "top-K not sorted by descending score at rank " << i;
      return out.str();
    }
  }
  return "";
}

}  // namespace

std::string CheckGovernance(const FuzzCase& fuzz_case) {
  Rng rng(fuzz_case.seed ^ 0x676f7665726e616eULL);
  core::SliceLineConfig config = fuzz_case.config;

  for (const Engine& engine : kGovernanceEngines) {
    // Ungoverned baseline: also tells us whether the case is big enough for
    // the engine to reach a governance poll at all (tiny runs can finish
    // before the first level boundary or strided check).
    auto plain = engine.run(fuzz_case.x0, fuzz_case.errors, config);
    if (!plain.ok()) {
      return std::string("[governance/plain/") + engine.name +
             "] ungoverned run failed: " + plain.status().ToString();
    }
    const bool reaches_poll =
        plain->average_error > 0.0 &&
        (plain->levels.size() >= 2 || plain->total_evaluated >= 128);

    // Scenario 1: pre-cancelled run. Must return gracefully -- never an
    // error status -- and, when the run is big enough to poll governance,
    // with a partial outcome.
    {
      RunContext ctx;
      ctx.cancellation().Cancel();
      config.run_context = &ctx;
      auto result = engine.run(fuzz_case.x0, fuzz_case.errors, config);
      if (!result.ok()) {
        return std::string("[governance/cancel/") + engine.name +
               "] run failed: " + result.status().ToString();
      }
      std::string failure =
          ValidateGovernedResult(*result, engine.name, "cancel");
      if (!failure.empty()) return failure;
      if (reaches_poll && !result->outcome.partial) {
        return std::string("[governance/cancel/") + engine.name +
               "] pre-cancelled run reported a complete outcome";
      }
    }

    // Scenario 2: simulated-time deadline firing after a random number of
    // governance polls. Deterministic: the clock advances a fixed step per
    // query, so the stop point depends only on the drawn deadline.
    {
      const double deadline = 1.0 + static_cast<double>(rng.NextInt(0, 400));
      SimulatedClock clock(0.0, 1.0);
      RunContext ctx;
      ctx.set_clock(&clock);
      ctx.set_deadline_seconds(deadline);
      config.run_context = &ctx;
      auto result = engine.run(fuzz_case.x0, fuzz_case.errors, config);
      if (!result.ok()) {
        return std::string("[governance/deadline/") + engine.name +
               "] run failed: " + result.status().ToString();
      }
      std::string failure =
          ValidateGovernedResult(*result, engine.name, "deadline");
      if (!failure.empty()) return failure;
    }

    // Scenario 3: random memory budget (possibly absurdly small). The run
    // must degrade or stop gracefully, never crash or report nonsense.
    {
      const int64_t limit = rng.NextInt(1, 1 << 20);
      MemoryBudget budget(limit);
      RunContext ctx;
      ctx.set_memory_budget(&budget);
      config.run_context = &ctx;
      auto result = engine.run(fuzz_case.x0, fuzz_case.errors, config);
      if (!result.ok()) {
        return std::string("[governance/budget/") + engine.name +
               "] run failed: " + result.status().ToString();
      }
      std::string failure =
          ValidateGovernedResult(*result, engine.name, "budget");
      if (!failure.empty()) return failure;
    }

    // Scenario 4: governed but unconstrained run -- must complete with the
    // default outcome and match the ungoverned top-K exactly.
    {
      RunContext ctx;
      config.run_context = &ctx;
      auto governed = engine.run(fuzz_case.x0, fuzz_case.errors, config);
      config.run_context = nullptr;
      if (!governed.ok()) {
        return std::string("[governance/noop/") + engine.name +
               "] run failed: " + governed.status().ToString();
      }
      if (governed->outcome.partial) {
        return std::string("[governance/noop/") + engine.name +
               "] unconstrained governed run reported partial: " +
               governed->outcome.Summary();
      }
      if (governed->top_k.size() != plain->top_k.size()) {
        return std::string("[governance/noop/") + engine.name +
               "] governed top-K size differs from ungoverned";
      }
      for (size_t i = 0; i < governed->top_k.size(); ++i) {
        if (governed->top_k[i].stats.score != plain->top_k[i].stats.score) {
          return std::string("[governance/noop/") + engine.name +
                 "] governed top-K score differs from ungoverned at rank " +
                 std::to_string(i);
        }
      }
    }
  }
  config.run_context = nullptr;
  return "";
}

}  // namespace sliceline::testing
