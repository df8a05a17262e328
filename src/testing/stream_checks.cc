// Stream-equivalence metamorphic check: splitting a dataset into a base
// plus appends and running the incremental StreamingSliceFinder
// (append* -> find, with finds interleaved to prime and continue the
// per-candidate statistic chains) must be BIT-identical to a one-shot run
// on the concatenated data — at every prefix and at every available ISA,
// over two independent cut draws per ISA.
#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/sliceline.h"
#include "linalg/kernels_simd.h"
#include "stream/stream_finder.h"
#include "testing/checks.h"

namespace sliceline::testing {
namespace {

using linalg::SimdIsa;

data::IntMatrix RowSlice(const data::IntMatrix& x0, int64_t begin,
                         int64_t end) {
  data::IntMatrix out(end - begin, x0.cols());
  for (int64_t r = begin; r < end; ++r) {
    const int32_t* src = x0.row(r);
    std::copy(src, src + x0.cols(), out.row(r - begin));
  }
  return out;
}

struct ScopedIsaReset {
  ~ScopedIsaReset() { linalg::ClearForcedIsa(); }
};

/// From-scratch reference at a row prefix, with the same frozen offsets the
/// streaming finder uses (so the comparison covers level accounting too).
StatusOr<core::SliceLineResult> ReferenceRun(
    const FuzzCase& fuzz_case, const data::FeatureOffsets& offsets,
    int64_t prefix, const core::SliceLineConfig& config) {
  const data::IntMatrix x0 = RowSlice(fuzz_case.x0, 0, prefix);
  const std::vector<double> errors(
      fuzz_case.errors.begin(),
      fuzz_case.errors.begin() + static_cast<size_t>(prefix));
  const core::SliceEvaluator evaluator(x0, offsets, errors);
  return core::RunSliceLineWithBackend(evaluator, config);
}

std::string RunEquivalenceRound(const FuzzCase& fuzz_case,
                                const core::SliceLineConfig& config,
                                Rng& rng) {
  const int64_t n = fuzz_case.x0.rows();
  // Base takes 40-80% of the rows; the rest arrives as 1-4 appends.
  const int64_t base_rows = std::max<int64_t>(
      1, (n * (40 + static_cast<int64_t>(rng.NextUint64(41)))) / 100);
  std::vector<int64_t> cuts{base_rows};
  const int num_appends = 1 + static_cast<int>(rng.NextUint64(4));
  for (int a = 0; a < num_appends; ++a) {
    cuts.push_back(base_rows +
                   static_cast<int64_t>(rng.NextUint64(
                       static_cast<uint64_t>(n - base_rows + 1))));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(n);

  stream::StreamOptions options;
  options.domains = fuzz_case.x0.ColMaxs();
  const data::FeatureOffsets offsets =
      data::OffsetsFromDomains(options.domains);

  auto finder_or = stream::StreamingSliceFinder::Create(
      RowSlice(fuzz_case.x0, 0, cuts[0]),
      std::vector<double>(
          fuzz_case.errors.begin(),
          fuzz_case.errors.begin() + static_cast<size_t>(cuts[0])),
      options);
  if (!finder_or.ok()) {
    return "streaming create failed: " + finder_or.status().ToString();
  }
  std::unique_ptr<stream::StreamingSliceFinder> finder =
      std::move(finder_or.value());

  int64_t prefix = cuts[0];
  for (size_t c = 0; c + 1 < cuts.size(); ++c) {
    // Find at this prefix (primes / continues the statistic cache), then
    // append the next chunk.
    auto got = finder->Find(config);
    if (!got.ok()) return "streaming find failed: " + got.status().ToString();
    auto want = ReferenceRun(fuzz_case, offsets, prefix, config);
    if (!want.ok()) return "reference run failed: " + want.status().ToString();
    std::ostringstream label;
    label << "prefix=" << prefix;
    std::string diff = CompareIdentical(*want, *got, label.str());
    if (!diff.empty()) return diff;

    const int64_t next = cuts[c + 1];
    if (next > prefix) {
      Status appended = finder->Append(
          RowSlice(fuzz_case.x0, prefix, next),
          std::vector<double>(
              fuzz_case.errors.begin() + static_cast<size_t>(prefix),
              fuzz_case.errors.begin() + static_cast<size_t>(next)));
      if (!appended.ok()) {
        return "streaming append failed: " + appended.ToString();
      }
      prefix = next;
    }
  }

  // Final prefix covers the whole dataset.
  auto got = finder->Find(config);
  if (!got.ok()) return "streaming find failed: " + got.status().ToString();
  auto want = ReferenceRun(fuzz_case, offsets, n, config);
  if (!want.ok()) return "reference run failed: " + want.status().ToString();
  std::string diff = CompareIdentical(*want, *got, "final");
  if (!diff.empty()) return diff;

  // A repeat find with no intervening append must answer entirely from the
  // cache: no delta continuations, no from-scratch evaluations.
  auto again = finder->Find(config);
  if (!again.ok()) {
    return "repeat find failed: " + again.status().ToString();
  }
  if (again.value().outcome.stream_candidates_delta != 0 ||
      again.value().outcome.stream_candidates_full != 0) {
    std::ostringstream os;
    os << "repeat find re-evaluated candidates (delta="
       << again.value().outcome.stream_candidates_delta
       << " full=" << again.value().outcome.stream_candidates_full << ")";
    return os.str();
  }
  diff = CompareIdentical(*want, *again, "repeat");
  if (!diff.empty()) return diff;
  return "";
}

}  // namespace

std::string CheckStreamEquivalence(const FuzzCase& fuzz_case) {
  if (fuzz_case.x0.rows() < 4) return "";
  // Bound enumeration the same way the SIMD differential does: the subject
  // here is incremental re-evaluation, not the pruning ablation.
  core::SliceLineConfig config = fuzz_case.config;
  config.eval_strategy = core::SliceLineConfig::EvalStrategy::kBitset;
  config.prune_size = true;
  config.prune_score = true;
  config.prune_parents = true;
  config.deduplicate = true;
  config.max_level = config.max_level == 0 ? 3 : std::min(config.max_level, 3);

  // Invalid inputs (non-finite or negative errors) are the oracle check's
  // domain; mirror its bail-out.
  {
    auto probe = core::RunSliceLine(fuzz_case.x0, fuzz_case.errors, config);
    if (!probe.ok()) return "";
  }

  Rng rng(fuzz_case.seed * 0x9e3779b97f4a7c15ULL + 2);
  ScopedIsaReset reset;
  for (SimdIsa isa : linalg::AvailableIsas()) {
    linalg::ForceIsa(isa);
    // Two rounds, each with its own base/append cuts.
    for (int round = 0; round < 2; ++round) {
      std::string failure = RunEquivalenceRound(fuzz_case, config, rng);
      if (!failure.empty()) {
        return DescribeCase(fuzz_case) + " isa=" + linalg::IsaName(isa) +
               " round=" + std::to_string(round) + " " + failure;
      }
    }
  }
  return "";
}

}  // namespace sliceline::testing
