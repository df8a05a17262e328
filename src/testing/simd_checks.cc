// SIMD differential check of the fuzzing subsystem: every bit-packed
// evaluation kernel at every ISA level this host can execute, against the
// always-compiled scalar reference — first on random bitmaps regenerated
// from the case seed (word tails, all-zero and full columns), on random
// codes for the bitmap fill (domains past a byte) and through the blocked
// evaluation loop over sibling runs, then end to end on the case's dataset:
// the full RunSliceLine top-K under each forced ISA must be BIT-identical to
// the scalar-forced run.
#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/sliceline.h"
#include "data/column_store.h"
#include "linalg/bitmap.h"
#include "linalg/kernels_simd.h"
#include "testing/checks.h"

namespace sliceline::testing {
namespace {

using linalg::Bitmap;
using linalg::SimdIsa;
using linalg::SimdKernels;

/// One seeded kernel round: random bitmaps over a random row count (biased
/// toward word-boundary tails) run through every kernel of `isa` and of the
/// scalar reference; any divergence is returned as a diagnostic.
std::string RunKernelRound(Rng& rng, SimdIsa isa) {
  const SimdKernels& simd = linalg::KernelsFor(isa);
  const SimdKernels& scalar = linalg::KernelsFor(SimdIsa::kScalar);
  std::ostringstream os;
  os << "isa=" << linalg::IsaName(isa) << " ";

  // Row counts hug the word boundaries where packing bugs live.
  static constexpr int64_t kRowChoices[] = {1, 63, 64, 65, 127, 255, 1024,
                                            4099};
  const int64_t rows = kRowChoices[rng.NextUint64(std::size(kRowChoices))];
  const int64_t words = linalg::BitmapWords(rows);

  const int num_cols = static_cast<int>(rng.NextInt(2, 5));
  std::vector<Bitmap> bitmaps;
  for (int c = 0; c < num_cols; ++c) {
    Bitmap b(rows);
    // Mix of empty, full, and random-density columns.
    const double density = rng.NextBool(0.2)   ? 0.0
                           : rng.NextBool(0.2) ? 1.1
                                               : rng.NextDouble();
    for (int64_t r = 0; r < rows; ++r) {
      if (rng.NextBool(density)) b.Set(r);
    }
    bitmaps.push_back(std::move(b));
  }
  std::vector<double> errors(static_cast<size_t>(words) * 64);
  data::ErrorGrid grid;
  for (double& e : errors) {
    e = rng.NextDouble() * 2.0;
    grid.Add(e);
  }
  const linalg::SumLayout layout = grid.layout();

  // The counting kernel: x one of the bitmaps, its masks a random nonempty
  // subset of them, which holds x itself at least half the time (the loop's
  // self-count), over the rows' own words: unpadded, so the vector levels
  // run their tails.
  {
    const int64_t span = (rows + 63) / 64;
    const Bitmap& x = bitmaps[rng.NextUint64(static_cast<uint64_t>(num_cols))];
    std::vector<const uint64_t*> masks;
    for (const Bitmap& b : bitmaps) {
      if (rng.NextBool(0.5)) masks.push_back(b.data());
    }
    if (masks.empty()) masks.push_back(x.data());
    const int32_t count = static_cast<int32_t>(masks.size());
    std::vector<int64_t> got(masks.size());
    std::vector<int64_t> want(masks.size());
    simd.fused_and_popcount(x.data(), masks.data(), count, span, got.data());
    scalar.fused_and_popcount(x.data(), masks.data(), count, span,
                              want.data());
    if (got != want) {
      os << "fused_and_popcount diverges from scalar (rows=" << rows
         << " masks=" << count << ")";
      return os.str();
    }
  }

  for (const Bitmap& a : bitmaps) {
    std::vector<uint64_t> simd_lanes(static_cast<size_t>(layout.lanes), 0);
    std::vector<uint64_t> scalar_lanes = simd_lanes;
    uint64_t simd_max = 0;
    uint64_t scalar_max = 0;
    simd.masked_sum(a.data(), words, errors.data(), layout, simd_lanes.data(),
                    &simd_max);
    scalar.masked_sum(a.data(), words, errors.data(), layout,
                      scalar_lanes.data(), &scalar_max);
    if (simd_lanes != scalar_lanes || simd_max != scalar_max) {
      os << "masked_sum diverges from scalar (rows=" << rows << ")";
      return os.str();
    }
  }

  std::vector<const uint64_t*> cols;
  for (const Bitmap& b : bitmaps) cols.push_back(b.data());
  std::vector<uint64_t> got(static_cast<size_t>(words));
  std::vector<uint64_t> want(static_cast<size_t>(words));
  const int64_t got_count = simd.intersect_columns(
      cols.data(), static_cast<int32_t>(cols.size()), got.data(), words);
  const int64_t want_count = scalar.intersect_columns(
      cols.data(), static_cast<int32_t>(cols.size()), want.data(), words);
  if (got_count != want_count || got != want) {
    os << "intersect_columns diverges from scalar (rows=" << rows
       << " len=" << cols.size() << " count=" << got_count << "/"
       << want_count << ")";
    return os.str();
  }
  return "";
}

/// One seeded fill round: one feature's codes (a domain past a byte a third
/// of the time) over a random row count, a random list of its codes, and
/// fill_words of `isa` against the scalar scatter, from a first word past 0.
std::string RunFillRound(Rng& rng, SimdIsa isa) {
  static constexpr int64_t kRowChoices[] = {1, 63, 64, 65, 127, 1024, 4099};
  const int64_t rows = kRowChoices[rng.NextUint64(std::size(kRowChoices))];
  const int64_t stride = rng.NextInt(1, 5);
  const int32_t domain = static_cast<int32_t>(
      rng.NextBool(0.33) ? rng.NextInt(255, 2000) : rng.NextInt(1, 254));
  std::vector<int32_t> codes(static_cast<size_t>(rows * stride));
  for (int32_t& code : codes) {
    code = static_cast<int32_t>(rng.NextInt(1, domain));
  }
  // Listed codes stop at `top`: the domain, 255 (where codes past a byte
  // saturate, so a list may end there while the rows go on) or any code.
  std::vector<int32_t> values;
  std::vector<int32_t> slot(static_cast<size_t>(domain));
  const double listed = rng.NextDouble();
  const int32_t tops[] = {domain, std::min(domain, 255),
                          static_cast<int32_t>(rng.NextInt(1, domain))};
  const int32_t top = tops[rng.NextUint64(std::size(tops))];
  for (int32_t code = 1; code <= top; ++code) {
    if (rng.NextBool(listed)) values.push_back(code);
  }
  const int32_t count = static_cast<int32_t>(values.size());
  std::fill(slot.begin(), slot.end(), count);
  for (int32_t k = 0; k < count; ++k) slot[values[k] - 1] = k;
  const int64_t first_word = rng.NextInt(0, 3);
  const size_t span = static_cast<size_t>(first_word + (rows + 63) / 64);
  const auto fill = [&](const SimdKernels& kernels) {
    std::vector<uint64_t> out(values.size() * span, 0);
    std::vector<uint64_t*> dst;
    for (size_t k = 0; k < values.size(); ++k) {
      dst.push_back(out.data() + k * span);
    }
    kernels.fill_words(codes.data(), stride, rows,
                       {values.data(), slot.data(), count, dst.data()},
                       first_word);
    return out;
  };
  if (fill(linalg::KernelsFor(isa)) !=
      fill(linalg::KernelsFor(SimdIsa::kScalar))) {
    std::ostringstream os;
    os << "isa=" << linalg::IsaName(isa)
       << " fill_words diverges from scalar (rows=" << rows
       << " domain=" << domain << " listed=" << count << ")";
    return os.str();
  }
  return "";
}

/// One seeded round of the blocked evaluation loop: candidates drawn as the
/// prefix join emits them (runs of siblings sharing their first len - 1
/// columns, len 1 to 4) over random bitmaps, with 0/1, quarter or wide
/// errors (one plane, several, none), from a random first row. The loop at
/// `isa` must give every candidate the size, rounded error sum and maximum
/// of an unblocked scalar pass: intersect all columns, then masked_sum.
std::string RunBlockedRound(Rng& rng, SimdIsa isa) {
  const SimdKernels& scalar = linalg::KernelsFor(SimdIsa::kScalar);
  // The last choice spans two word tiles of the loop.
  static constexpr int64_t kRowChoices[] = {
      1, 63, 64, 65, 255, 1024, 4099, 64 * linalg::kEvaluateWordTile + 77};
  const int64_t rows = kRowChoices[rng.NextUint64(std::size(kRowChoices))];
  const int64_t words = linalg::BitmapWords(rows);
  const int num_cols = static_cast<int>(rng.NextInt(3, 10));
  std::vector<Bitmap> bitmaps;
  for (int c = 0; c < num_cols; ++c) {
    Bitmap b(rows);
    const double density = rng.NextBool(0.15)   ? 0.0
                           : rng.NextBool(0.15) ? 1.1
                                                : rng.NextDouble();
    for (int64_t r = 0; r < rows; ++r) {
      if (rng.NextBool(density)) b.Set(r);
    }
    bitmaps.push_back(std::move(b));
  }
  // 0: 0/1 errors, 1: quarters up to 1.75, 2: wide errors (no planes).
  const int kind = static_cast<int>(rng.NextUint64(3));
  std::vector<double> errors(static_cast<size_t>(words) * 64, 0.0);
  data::ErrorGrid grid;
  for (int64_t r = 0; r < rows; ++r) {
    double& e = errors[static_cast<size_t>(r)];
    e = kind == 2   ? rng.NextDouble() * 2.0
        : kind == 1 ? static_cast<double>(rng.NextInt(0, 7)) * 0.25
                    : static_cast<double>(rng.NextInt(0, 1));
    grid.Add(e);
  }
  // The planes as the column store keeps them: bit b of each error's k over
  // the grid's unit.
  const int plane_count = kind == 2 ? 0 : grid.planes();
  std::vector<Bitmap> plane_bits(static_cast<size_t>(plane_count),
                                 Bitmap(rows));
  for (int64_t r = 0; r < rows && plane_count > 0; ++r) {
    const auto k = static_cast<int64_t>(std::ldexp(
        errors[static_cast<size_t>(r)], -grid.low_exponent()));
    for (int b = 0; b < plane_count; ++b) {
      if ((k >> b) & 1) plane_bits[static_cast<size_t>(b)].Set(r);
    }
  }
  std::vector<const uint64_t*> plane_words;
  for (const Bitmap& b : plane_bits) plane_words.push_back(b.data());
  const linalg::ErrorPlanes planes{plane_words.data(), plane_count,
                                   grid.low_exponent()};
  const linalg::ErrorSource source{errors.data(), grid.layout(),
                                   kind == 2 ? nullptr : &planes};

  std::vector<std::vector<const uint64_t*>> column_sets;
  const int num_runs = static_cast<int>(rng.NextInt(1, 8));
  for (int run = 0; run < num_runs; ++run) {
    const int len = static_cast<int>(rng.NextInt(1, 4));
    const int64_t siblings = rng.NextBool(0.2) ? rng.NextInt(60, 80)
                                               : rng.NextInt(1, 3);
    std::vector<const uint64_t*> prefix;
    for (int k = 0; k + 1 < len; ++k) {
      prefix.push_back(bitmaps[rng.NextUint64(bitmaps.size())].data());
    }
    for (int64_t s = 0; s < siblings; ++s) {
      std::vector<const uint64_t*> cols = prefix;
      cols.push_back(bitmaps[rng.NextUint64(bitmaps.size())].data());
      column_sets.push_back(std::move(cols));
    }
  }
  const size_t count = column_sets.size();
  std::vector<linalg::CandidateColumns> candidates;
  for (const auto& cols : column_sets) {
    candidates.push_back({cols.data(), static_cast<int32_t>(cols.size())});
  }
  const int64_t first_row = rng.NextBool(0.5) ? 0 : rng.NextInt(0, rows - 1);
  const int64_t stride = source.layout.lanes;
  std::vector<int64_t> sizes(count, 0);
  std::vector<uint64_t> lanes(count * static_cast<size_t>(stride), 0);
  std::vector<uint64_t> max_bits(count, 0);
  linalg::EvaluateCandidatesBlocked(
      linalg::KernelsFor(isa), candidates.data(), static_cast<int64_t>(count),
      words, source, sizes.data(), lanes.data(), max_bits.data(), first_row);

  std::vector<uint64_t> mask(static_cast<size_t>(words));
  for (size_t c = 0; c < count; ++c) {
    int64_t size = scalar.intersect_columns(candidates[c].cols,
                                            candidates[c].len, mask.data(),
                                            words);
    for (int64_t r = 0; r < first_row; ++r) {
      size -= static_cast<int64_t>((mask[r >> 6] >> (r & 63)) & 1);
      mask[r >> 6] &= ~(uint64_t{1} << (r & 63));
    }
    std::vector<uint64_t> want_lanes(static_cast<size_t>(stride), 0);
    uint64_t want_max = 0;
    scalar.masked_sum(mask.data(), words, errors.data(), source.layout,
                      want_lanes.data(), &want_max);
    const double want_sum =
        linalg::RoundLanes(want_lanes.data(), source.layout);
    const double got_sum =
        linalg::RoundLanes(lanes.data() + c * stride, source.layout);
    if (sizes[c] != size ||
        std::bit_cast<uint64_t>(got_sum) != std::bit_cast<uint64_t>(want_sum) ||
        max_bits[c] != want_max) {
      std::ostringstream os;
      os << "isa=" << linalg::IsaName(isa)
         << " blocked loop diverges from scalar (rows=" << rows
         << " first_row=" << first_row << " errors=" << kind
         << " candidate " << c << " of " << count << " len="
         << candidates[c].len << ": size " << sizes[c] << "/" << size
         << " sum " << got_sum << "/" << want_sum << ")";
      return os.str();
    }
  }
  return "";
}

/// Restores environment/auto ISA selection on scope exit, so a failing check
/// never leaves the process pinned to a test ISA.
struct ScopedIsaReset {
  ~ScopedIsaReset() { linalg::ClearForcedIsa(); }
};

}  // namespace

std::string CheckSimdDifferential(const FuzzCase& fuzz_case) {
  // (1) Seeded kernel rounds at every available ISA. The scalar-vs-scalar
  // round is not skipped: it exercises the kernels on this round's shapes
  // even on hosts with no vector units.
  Rng rng(fuzz_case.seed * 0x9e3779b97f4a7c15ULL + 1);
  Rng fill_rng(fuzz_case.seed * 0x9e3779b97f4a7c15ULL + 2);
  Rng blocked_rng(fuzz_case.seed * 0x9e3779b97f4a7c15ULL + 3);
  for (SimdIsa isa : linalg::AvailableIsas()) {
    std::string failure = RunKernelRound(rng, isa);
    if (failure.empty()) failure = RunFillRound(fill_rng, isa);
    if (failure.empty()) failure = RunBlockedRound(blocked_rng, isa);
    if (!failure.empty()) {
      return DescribeCase(fuzz_case) + " " + failure;
    }
  }

  // (2) End-to-end: the case's dataset through the native engine on the
  // bit-packed strategy, once per ISA, all bit-identical to scalar. The
  // fuzzed ablation toggles are NOT honored here: with pruning disabled and
  // depth unbounded some generated cases enumerate combinatorially (the
  // known ablation pathology the governance smoke also sidesteps), and this
  // check's subject is the kernels, not the pruning logic. Full pruning plus
  // a depth cap keeps every case's run bounded.
  ScopedIsaReset reset;
  core::SliceLineConfig config = fuzz_case.config;
  config.eval_strategy = core::SliceLineConfig::EvalStrategy::kBitset;
  config.prune_size = true;
  config.prune_score = true;
  config.prune_parents = true;
  config.deduplicate = true;
  config.max_level = config.max_level == 0 ? 3 : std::min(config.max_level, 3);

  linalg::ForceIsa(SimdIsa::kScalar);
  auto base = core::RunSliceLine(fuzz_case.x0, fuzz_case.errors, config);
  if (!base.ok()) return "";  // invalid inputs are the oracle check's domain

  for (SimdIsa isa : linalg::AvailableIsas()) {
    if (isa == SimdIsa::kScalar) continue;
    linalg::ForceIsa(isa);
    auto run = core::RunSliceLine(fuzz_case.x0, fuzz_case.errors, config);
    if (!run.ok()) {
      return DescribeCase(fuzz_case) + " isa=" + linalg::IsaName(isa) +
             " run failed: " + run.status().ToString();
    }
    std::string diff = CompareIdentical(
        *base, *run, std::string("isa=") + linalg::IsaName(isa));
    if (!diff.empty()) return DescribeCase(fuzz_case) + " " + diff;
  }
  return "";
}

}  // namespace sliceline::testing
