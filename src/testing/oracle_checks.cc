// Engine-differential, metamorphic, and determinism checks of the fuzzing
// subsystem. Each check returns "" on success or a human-readable
// description of the first divergence (consumed by the shrinker and the
// replay writer).
#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "common/thread_pool.h"
#include "core/exhaustive.h"
#include "core/scoring.h"
#include "core/sliceline.h"
#include "core/sliceline_bestfirst.h"
#include "core/sliceline_la.h"
#include "dist/coordinator.h"
#include "linalg/exact_sum.h"
#include "testing/checks.h"

namespace sliceline::testing {
namespace {

using core::SliceLineResult;

std::string PredicateKey(const core::Slice& slice) {
  std::ostringstream os;
  for (const auto& [f, c] : slice.predicates) os << f << "=" << c << ";";
  return os.str();
}

/// Rank-wise bit-identical score comparison plus tie-aware slice-set
/// equivalence over the slices scoring above kScoreFloor: every such slice of
/// `a` scoring strictly above a's K-th score (no boundary tie) must appear in
/// `b` with identical predicates.
std::string CompareTopK(const SliceLineResult& a, const SliceLineResult& b,
                        const std::string& label) {
  std::ostringstream os;
  os.precision(17);
  auto cleared = [](const SliceLineResult& r) {
    std::vector<const core::Slice*> out;
    for (const core::Slice& slice : r.top_k) {
      if (slice.stats.score > kScoreFloor) out.push_back(&slice);
    }
    return out;
  };
  const std::vector<const core::Slice*> fa = cleared(a);
  const std::vector<const core::Slice*> fb = cleared(b);
  if (fa.size() != fb.size()) {
    os << label << ": top-K size mismatch " << fa.size() << " vs " << fb.size()
       << " (scores > floor; raw sizes " << a.top_k.size() << " vs "
       << b.top_k.size() << ")";
    return os.str();
  }
  for (size_t i = 0; i < fa.size(); ++i) {
    if (fa[i]->stats.score != fb[i]->stats.score) {
      os << label << ": score mismatch at rank " << i << ": "
         << fa[i]->stats.score << " vs " << fb[i]->stats.score;
      return os.str();
    }
  }
  if (fa.empty()) return "";
  // Slices strictly above the K-th score cannot be displaced by tie
  // permutation, so they must appear verbatim on the other side.
  const double kth = fa.back()->stats.score;
  std::set<std::string> b_keys;
  for (const core::Slice* slice : fb) b_keys.insert(PredicateKey(*slice));
  for (const core::Slice* slice : fa) {
    if (!(slice->stats.score > kth)) continue;
    if (b_keys.count(PredicateKey(*slice)) == 0) {
      os << label << ": slice " << slice->ToString()
         << " (above the tie boundary) missing from the other engine";
      return os.str();
    }
  }
  return "";
}

double ExactTotal(const std::vector<double>& errors) {
  linalg::ExactSum total;
  for (double e : errors) total.Add(e);
  return total.ToDouble();
}

/// Plants a scoring defect in the native engine's top-K: kScoring rescores
/// with an off-by-one average error (e-bar over n-1 rows), kErrorSumUlp
/// moves every error sum up one ulp and rescores.
void InjectIntoNative(InjectedBug inject, const FuzzCase& fuzz_case,
                      SliceLineResult* result) {
  const bool off_by_one = inject == InjectedBug::kScoring;
  const int64_t n = fuzz_case.x0.rows() - (off_by_one ? 1 : 0);
  if ((!off_by_one && inject != InjectedBug::kErrorSumUlp) || n < 1) return;
  const core::ScoringContext context(n, ExactTotal(fuzz_case.errors),
                                     fuzz_case.config.alpha);
  for (core::Slice& slice : result->top_k) {
    if (!off_by_one) {
      slice.stats.error_sum = std::nextafter(
          slice.stats.error_sum, std::numeric_limits<double>::infinity());
    }
    slice.stats.score = context.Score(slice.stats.size, slice.stats.error_sum);
  }
}

}  // namespace

std::string DescribeCase(const FuzzCase& fuzz_case) {
  std::ostringstream os;
  os << "[profile=" << fuzz_case.profile << " seed=" << fuzz_case.seed
     << " n=" << fuzz_case.x0.rows() << " m=" << fuzz_case.x0.cols()
     << " k=" << fuzz_case.config.k << " alpha=" << fuzz_case.config.alpha
     << " sigma=" << fuzz_case.config.min_support << "]";
  return os.str();
}

std::string CompareIdentical(const SliceLineResult& want,
                             const SliceLineResult& got,
                             const std::string& label) {
  const auto same = [](double a, double b) {
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
  };
  std::ostringstream os;
  os.precision(17);
  if (want.top_k.size() != got.top_k.size()) {
    os << label << ": top-K size " << got.top_k.size() << " vs "
       << want.top_k.size();
    return os.str();
  }
  for (size_t i = 0; i < want.top_k.size(); ++i) {
    const core::SliceStats& a = want.top_k[i].stats;
    const core::SliceStats& b = got.top_k[i].stats;
    if (want.top_k[i].predicates != got.top_k[i].predicates) {
      os << label << ": rank " << i << " predicates differ";
      return os.str();
    }
    if (a.size != b.size || !same(a.score, b.score) ||
        !same(a.error_sum, b.error_sum) || !same(a.max_error, b.max_error)) {
      os << label << ": rank " << i << " stats not bit-identical (score "
         << a.score << " vs " << b.score << ", error_sum " << a.error_sum
         << " vs " << b.error_sum << ")";
      return os.str();
    }
  }
  if (want.total_evaluated != got.total_evaluated ||
      want.levels.size() != got.levels.size()) {
    os << label << ": level accounting differs (evaluated "
       << got.total_evaluated << " vs " << want.total_evaluated << ")";
    return os.str();
  }
  return "";
}

std::string CheckOracleDifferential(const FuzzCase& fuzz_case,
                                    InjectedBug inject) {
  std::ostringstream os;
  auto oracle =
      core::RunExhaustive(fuzz_case.x0, fuzz_case.errors, fuzz_case.config);
  auto native =
      core::RunSliceLine(fuzz_case.x0, fuzz_case.errors, fuzz_case.config);
  auto la =
      core::RunSliceLineLA(fuzz_case.x0, fuzz_case.errors, fuzz_case.config);
  auto best_first = core::RunSliceLineBestFirst(fuzz_case.x0, fuzz_case.errors,
                                                fuzz_case.config);
  if (oracle.ok() != native.ok() || oracle.ok() != la.ok() ||
      oracle.ok() != best_first.ok()) {
    os << DescribeCase(fuzz_case) << " engines disagree on input validity: "
       << "oracle=" << oracle.status().ToString()
       << " native=" << native.status().ToString()
       << " la=" << la.status().ToString()
       << " best-first=" << best_first.status().ToString();
    return os.str();
  }
  if (!oracle.ok()) return "";  // consistently rejected input

  InjectIntoNative(inject, fuzz_case, &*native);

  for (const auto& [result, label] :
       {std::pair<const SliceLineResult*, const char*>{&*native, "native"},
        {&*la, "la"},
        {&*best_first, "best-first"}}) {
    std::string diff =
        CompareTopK(*oracle, *result, std::string("oracle vs ") + label);
    if (!diff.empty()) return DescribeCase(fuzz_case) + " " + diff;
  }
  return "";
}

std::string CheckMetamorphic(const FuzzCase& fuzz_case) {
  std::ostringstream os;
  os.precision(17);
  const data::IntMatrix& x0 = fuzz_case.x0;
  const std::vector<double>& errors = fuzz_case.errors;
  const core::SliceLineConfig& config = fuzz_case.config;
  const int64_t n = x0.rows();

  auto base = core::RunSliceLine(x0, errors, config);
  if (!base.ok()) return "";  // invalid inputs are the oracle check's domain

  // (1) Reported stats must match a brute-force row scan, and the score must
  // match Equation 1 recomputed from those stats.
  const core::ScoringContext scoring(n, ExactTotal(errors), config.alpha);
  for (const core::Slice& slice : base->top_k) {
    int64_t size = 0;
    linalg::ExactSum exact_sum;
    double max_error = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      if (!slice.Matches(x0, i)) continue;
      ++size;
      exact_sum.Add(errors[i]);
      max_error = std::max(max_error, errors[i]);
    }
    const double error_sum = exact_sum.ToDouble();
    if (size != slice.stats.size || error_sum != slice.stats.error_sum ||
        max_error != slice.stats.max_error) {
      os << DescribeCase(fuzz_case) << " stats of " << slice.ToString()
         << " disagree with a row scan (size " << size << " se " << error_sum
         << " sm " << max_error << ")";
      return os.str();
    }
    const double rescored = scoring.Score(size, error_sum);
    if (rescored != slice.stats.score) {
      os << DescribeCase(fuzz_case) << " score of " << slice.ToString()
         << " != Equation 1 rescoring " << rescored;
      return os.str();
    }
  }

  // (2) Row-permutation invariance.
  {
    std::vector<int64_t> perm(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) perm[i] = i;
    Rng perm_rng(fuzz_case.seed ^ 0x9e3779b97f4a7c15ULL);
    perm_rng.Shuffle(perm);
    data::IntMatrix permuted(n, x0.cols());
    std::vector<double> permuted_errors(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < x0.cols(); ++j) {
        permuted.At(i, j) = x0.At(perm[i], j);
      }
      permuted_errors[i] = errors[perm[i]];
    }
    auto shuffled = core::RunSliceLine(permuted, permuted_errors, config);
    if (!shuffled.ok()) {
      return DescribeCase(fuzz_case) +
             " permuted run failed: " + shuffled.status().ToString();
    }
    std::string diff = CompareTopK(*base, *shuffled, "row permutation");
    if (!diff.empty()) return DescribeCase(fuzz_case) + " " + diff;
  }

  // (3) Duplication scaling: replicating every row r times and multiplying
  // sigma by r leaves every score unchanged (both Equation 1 terms are
  // ratios).
  {
    const data::IntMatrix doubled_x0 = x0.ReplicateRows(2);
    std::vector<double> doubled_errors(errors);
    doubled_errors.insert(doubled_errors.end(), errors.begin(), errors.end());
    core::SliceLineConfig doubled_config = config;
    doubled_config.min_support = 2 * core::ResolveMinSupport(config, n);
    auto doubled =
        core::RunSliceLine(doubled_x0, doubled_errors, doubled_config);
    if (!doubled.ok()) {
      return DescribeCase(fuzz_case) +
             " duplicated run failed: " + doubled.status().ToString();
    }
    std::string diff = CompareTopK(*base, *doubled, "2x duplication");
    if (!diff.empty()) return DescribeCase(fuzz_case) + " " + diff;
  }

  // (4) Alpha monotonicity: the best achievable score is non-decreasing in
  // alpha (every admitted slice has an above-average error ratio, so its
  // linear-in-alpha score has non-negative slope).
  {
    const double hi = std::min(1.0, config.alpha + 0.2);
    if (hi > config.alpha) {
      core::SliceLineConfig hi_config = config;
      hi_config.alpha = hi;
      auto hi_result = core::RunSliceLine(x0, errors, hi_config);
      if (!hi_result.ok()) {
        return DescribeCase(fuzz_case) +
               " alpha-raised run failed: " + hi_result.status().ToString();
      }
      const double best_lo =
          base->top_k.empty() ? 0.0 : base->top_k[0].stats.score;
      const double best_hi =
          hi_result->top_k.empty() ? 0.0 : hi_result->top_k[0].stats.score;
      if (best_lo > kScoreFloor && best_hi < best_lo) {
        os << DescribeCase(fuzz_case) << " best score decreased when alpha "
           << config.alpha << " -> " << hi << ": " << best_lo << " -> "
           << best_hi;
        return os.str();
      }
    }
  }
  return "";
}

std::string CheckDeterminism(const FuzzCase& fuzz_case) {
  std::ostringstream os;
  const core::SliceLineConfig& config = fuzz_case.config;
  auto base = core::RunSliceLine(fuzz_case.x0, fuzz_case.errors, config);
  if (!base.ok()) return "";

  // Every strategy is bit-identical across repeats and thread counts.
  // (1) Re-running the identical configuration.
  {
    auto again = core::RunSliceLine(fuzz_case.x0, fuzz_case.errors, config);
    if (!again.ok()) {
      return DescribeCase(fuzz_case) +
             " re-run failed: " + again.status().ToString();
    }
    std::string diff = CompareTopK(*base, *again, "re-run");
    if (!diff.empty()) return DescribeCase(fuzz_case) + " " + diff;
  }

  // (2) Thread-pool sizes {1, 2, 8}.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ResizeGlobalThreadPoolForTesting(threads);
    auto run = core::RunSliceLine(fuzz_case.x0, fuzz_case.errors, config);
    if (!run.ok()) {
      ResizeGlobalThreadPoolForTesting(0);
      os << DescribeCase(fuzz_case) << " run with " << threads
         << " threads failed: " << run.status().ToString();
      return os.str();
    }
    std::string diff =
        CompareTopK(*base, *run, "threads=" + std::to_string(threads));
    if (!diff.empty()) {
      ResizeGlobalThreadPoolForTesting(0);
      return DescribeCase(fuzz_case) + " " + diff;
    }
  }
  ResizeGlobalThreadPoolForTesting(0);

  // (3) Distributed shard counts {1, 3, 7} against the local engine.
  for (int workers : {1, 3, 7}) {
    dist::DistOptions options;
    options.local_workers = workers;
    auto distributed = dist::RunSliceLineDistributed(
        fuzz_case.x0, fuzz_case.errors, config, options);
    if (!distributed.ok()) {
      os << DescribeCase(fuzz_case) << " distributed run (" << workers
         << " workers) failed: " << distributed.status().ToString();
      return os.str();
    }
    std::string diff = CompareTopK(*base, *distributed,
                                   "workers=" + std::to_string(workers));
    if (!diff.empty()) return DescribeCase(fuzz_case) + " " + diff;
  }

  // (4) Fault-injected distributed runs: a top-K bit-identical to the
  // fault-free run (local fallback included) and a reproducible fault
  // schedule across repeats.
  {
    dist::DistOptions clean;
    clean.local_workers = 5;
    auto clean_run = dist::RunSliceLineDistributed(
        fuzz_case.x0, fuzz_case.errors, config, clean);
    if (!clean_run.ok()) {
      return DescribeCase(fuzz_case) +
             " 5-worker run failed: " + clean_run.status().ToString();
    }
    dist::DistOptions faulty = clean;
    faulty.fault.seed = fuzz_case.seed | 1;
    faulty.fault.transient_rate = 0.15;
    faulty.fault.straggler_rate = 0.15;
    faulty.fault.corruption_rate = 0.10;
    faulty.fault.loss_rate = 0.05;
    dist::DistFaultStats first_stats;
    auto first = dist::RunSliceLineDistributed(
        fuzz_case.x0, fuzz_case.errors, config, faulty, nullptr, &first_stats);
    if (!first.ok()) {
      return DescribeCase(fuzz_case) +
             " faulty run failed: " + first.status().ToString();
    }
    std::string diff = CompareTopK(*clean_run, *first, "faults vs clean");
    if (!diff.empty()) return DescribeCase(fuzz_case) + " " + diff;

    dist::DistFaultStats second_stats;
    auto second = dist::RunSliceLineDistributed(
        fuzz_case.x0, fuzz_case.errors, config, faulty, nullptr,
        &second_stats);
    if (!second.ok()) {
      return DescribeCase(fuzz_case) +
             " faulty re-run failed: " + second.status().ToString();
    }
    if (!(first_stats == second_stats)) {
      os << DescribeCase(fuzz_case)
         << " fault schedule not reproducible: " << first_stats.Summary()
         << " vs " << second_stats.Summary();
      return os.str();
    }
    diff = CompareTopK(*first, *second, "faulty repeat");
    if (!diff.empty()) return DescribeCase(fuzz_case) + " " + diff;
  }
  return "";
}

}  // namespace sliceline::testing
