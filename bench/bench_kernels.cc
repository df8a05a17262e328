// Microbenchmarks of the linear-algebra kernels the SliceLine enumeration
// is built from: one-hot encoding, colSums, the vector-matrix error
// aggregation e^T X, the S*S^T pair join, the X*S^T evaluation product,
// table()-based selection-matrix construction, the bit-packed
// evaluation kernels (exact masked sums, error planes and sibling runs),
// and the column bitmap fill. Each kernel is timed over repeated runs on
// the shared harness (bench_util.h); the best wall-clock per run and the
// derived items/s are printed, and recorded through bench::Reporter when
// SLICELINE_BENCH_JSON is set.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "data/column_store.h"
#include "data/generators/generators.h"
#include "data/onehot.h"
#include "linalg/bitmap.h"
#include "linalg/kernels.h"
#include "linalg/kernels_simd.h"

namespace {

using namespace sliceline;

const data::EncodedDataset& AdultDataset() {
  static const data::EncodedDataset* ds = [] {
    return new data::EncodedDataset(bench::Load("adult", 20000));
  }();
  return *ds;
}

/// Checksum sink: forces each kernel's result to be materialized so the
/// timed call cannot be optimized away; the total is printed at the end.
volatile double g_sink = 0.0;

/// Times `fn` over repeated runs (after one untimed warm-up) and reports the
/// best run plus items/s at that best. `items` is the per-run work unit
/// (rows or nonzeros), 0 to skip the throughput column. Returns the best
/// wall-clock so callers can derive speedup ratios between cases.
///
/// Repetition is time-budgeted, not a fixed count: fast cases repeat until
/// ~kTimeBudget of wall clock accumulates (so a 10us kernel gets thousands
/// of samples and its best stabilizes), slow cases stop after kMinReps.
/// Fixed-count best-of-5 left sub-10ms cases swinging 2-3x between runs,
/// which no regression threshold survives.
template <typename Fn>
double RunCase(bench::Reporter& reporter, const std::string& name,
               int64_t items, Fn&& fn) {
  constexpr int kMinReps = 5;
  constexpr int kMaxReps = 20000;
  constexpr double kTimeBudget = 0.25;  // seconds of samples per case
  g_sink = g_sink + fn();
  double best = 0.0;
  double total = 0.0;
  int reps = 0;
  while (reps < kMinReps || (total < kTimeBudget && reps < kMaxReps)) {
    const double seconds = bench::Timed([&] { g_sink = g_sink + fn(); });
    total += seconds;
    if (reps == 0 || seconds < best) best = seconds;
    ++reps;
  }
  std::string throughput = "-";
  if (items > 0 && best > 0.0) {
    throughput =
        FormatWithCommas(static_cast<int64_t>(items / best)) + "/s";
  }
  std::printf("  %-28s %12s %12s %18s\n", name.c_str(),
              FormatDouble(best, 6).c_str(),
              FormatDouble(total / reps, 6).c_str(), throughput.c_str());
  reporter.AddRow(name, {{"best_seconds", best},
                         {"mean_seconds", total / reps},
                         {"items", static_cast<double>(items)}});
  return best;
}

linalg::CsrMatrix RandomSliceMatrix(int64_t slices, int64_t cols, int level,
                                    uint64_t seed) {
  Rng rng(seed);
  linalg::CooBuilder builder(slices, cols);
  for (int64_t s = 0; s < slices; ++s) {
    for (int k = 0; k < level; ++k) {
      builder.Add(s, rng.NextUint64(cols), 1.0);
    }
  }
  return builder.Build();
}

/// Packs every one-hot column of the dataset into a row bitmap — the
/// dataset-side input of the bit-packed evaluation kernels.
std::vector<linalg::Bitmap> PackColumns(const data::IntMatrix& x0,
                                        const data::FeatureOffsets& offsets) {
  std::vector<linalg::Bitmap> columns;
  columns.reserve(static_cast<size_t>(offsets.total));
  for (int64_t c = 0; c < offsets.total; ++c) {
    columns.emplace_back(x0.rows());
  }
  for (int64_t r = 0; r < x0.rows(); ++r) {
    for (int64_t j = 0; j < x0.cols(); ++j) {
      const int32_t code = x0.At(r, j);
      if (code > 0) columns[static_cast<size_t>(offsets.fb[j] + code - 1)]
          .Set(r);
    }
  }
  return columns;
}

/// `count` level-`level` candidates drawn as random column conjunctions from
/// distinct features (the shape the enumerator actually evaluates).
std::vector<std::vector<const uint64_t*>> DrawCandidates(
    const std::vector<linalg::Bitmap>& columns,
    const data::FeatureOffsets& offsets, int64_t count, int level,
    uint64_t seed) {
  Rng rng(seed);
  const int m = offsets.num_features();
  std::vector<std::vector<const uint64_t*>> candidates;
  candidates.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    std::vector<const uint64_t*> cols;
    int feature = static_cast<int>(rng.NextUint64(m));
    for (int k = 0; k < level; ++k) {
      const int64_t lo = offsets.fb[feature];
      const int64_t span = offsets.fe[feature] - lo;
      cols.push_back(
          columns[static_cast<size_t>(lo + rng.NextUint64(span))].data());
      feature = (feature + 1 + static_cast<int>(rng.NextUint64(m - 1))) % m;
    }
    candidates.push_back(std::move(cols));
  }
  return candidates;
}

/// `count` level-`level` candidates in the order the prefix join emits them:
/// runs of siblings that share a prefix of level - 1 columns from
/// ascending features, each sibling adding one column of a later feature
/// (about half of those columns, in column order).
std::vector<std::vector<const uint64_t*>> DrawSiblingRuns(
    const std::vector<linalg::Bitmap>& columns,
    const data::FeatureOffsets& offsets, int64_t count, int level,
    uint64_t seed) {
  Rng rng(seed);
  const int m = offsets.num_features();
  std::vector<std::vector<const uint64_t*>> candidates;
  candidates.reserve(static_cast<size_t>(count));
  while (static_cast<int64_t>(candidates.size()) < count) {
    std::vector<const uint64_t*> prefix;
    int feature = -1;
    for (int k = 0; k + 1 < level; ++k) {
      feature += 1 + static_cast<int>(
                         rng.NextUint64(std::max(1, (m - feature) / 3)));
      if (feature >= m - 1) break;
      const int64_t lo = offsets.fb[feature];
      prefix.push_back(columns[static_cast<size_t>(
                                   lo + rng.NextUint64(offsets.fe[feature] -
                                                       lo))]
                           .data());
    }
    if (static_cast<int>(prefix.size()) + 1 != level) continue;
    for (int64_t c = offsets.fb[feature + 1];
         c < offsets.total && static_cast<int64_t>(candidates.size()) < count;
         ++c) {
      if (!rng.NextBool(0.5)) continue;
      std::vector<const uint64_t*> cols = prefix;
      cols.push_back(columns[static_cast<size_t>(c)].data());
      candidates.push_back(std::move(cols));
    }
  }
  return candidates;
}

}  // namespace

int main() {
  bench::Banner("Linear-Algebra Kernel Microbenchmarks",
                "SliceLine Section 3 kernels (Equations 3-6)");
  bench::Reporter reporter("bench_kernels",
                           "SliceLine Section 3 kernels (Equations 3-6)");

  const data::EncodedDataset& ds = AdultDataset();
  const data::FeatureOffsets offsets = data::ComputeOffsets(ds.x0);
  const linalg::CsrMatrix x = data::OneHotEncode(ds.x0, offsets);
  std::printf("adult: n=%s, m=%lld, onehot cols=%lld, nnz=%s\n\n",
              FormatWithCommas(ds.n()).c_str(),
              static_cast<long long>(ds.m()),
              static_cast<long long>(offsets.total),
              FormatWithCommas(x.nnz()).c_str());
  std::printf("  %-28s %12s %12s %18s\n", "kernel", "best[s]", "mean[s]",
              "throughput");

  RunCase(reporter, "onehot_encode", ds.n(), [&] {
    return static_cast<double>(data::OneHotEncode(ds.x0, offsets).nnz());
  });
  RunCase(reporter, "onehot_encode_via_table", ds.n(), [&] {
    return static_cast<double>(
        data::OneHotEncodeViaTable(ds.x0, offsets).nnz());
  });
  RunCase(reporter, "col_sums", x.nnz(), [&] {
    const std::vector<double> sums = linalg::ColSums(x);
    return sums.empty() ? 0.0 : sums[0];
  });
  // se0 = (e^T X)^T, Equation 4.
  RunCase(reporter, "error_aggregation_etx", x.nnz(), [&] {
    const std::vector<double> se = linalg::TransposeMatVec(x, ds.errors);
    return se.empty() ? 0.0 : se[0];
  });
  for (const int64_t slices : {128, 512, 2048}) {
    const linalg::CsrMatrix s = RandomSliceMatrix(slices, 162, 2, 7);
    RunCase(reporter, "pair_join_sst/" + std::to_string(slices),
            slices * slices, [&] {
              return static_cast<double>(linalg::MultiplyABt(s, s).nnz());
            });
  }
  for (const int64_t slices : {16, 64}) {
    const linalg::CsrMatrix s = RandomSliceMatrix(slices, offsets.total, 2, 11);
    RunCase(reporter, "eval_product_xst/" + std::to_string(slices),
            x.rows() * slices, [&] {
              return static_cast<double>(
                  linalg::FilterEquals(linalg::MultiplyABt(x, s), 2.0).nnz());
            });
  }
  for (const int64_t n : {10000, 100000}) {
    Rng rng(13);
    std::vector<int64_t> rix(n);
    std::vector<int64_t> cix(n);
    for (int64_t i = 0; i < n; ++i) {
      rix[i] = i;
      cix[i] = static_cast<int64_t>(rng.NextUint64(n));
    }
    RunCase(reporter, "table_construction/" + std::to_string(n), n, [&] {
      return static_cast<double>(linalg::Table(rix, cix, n, n).nnz());
    });
  }
  RunCase(reporter, "spgemm_transpose", x.nnz(), [&] {
    return static_cast<double>(linalg::Transpose(x).nnz());
  });

  // --- Bit-packed SIMD evaluation kernels ---------------------------------
  // The counting kernel (word-AND + popcount membership, fused_and_popcount)
  // and the masked error reductions, scalar reference vs every vector ISA
  // this host executes. The per-ISA candidate_eval rows are THE perf
  // baseline for the packed hot path: speedup = scalar best / ISA best,
  // recorded under simd_speedup in BENCH_kernels.json.
  std::printf("\nbit-packed evaluation kernels (row words=%lld)\n",
              static_cast<long long>(linalg::BitmapWords(ds.n())));
  std::printf("  %-28s %12s %12s %18s\n", "kernel", "best[s]", "mean[s]",
              "throughput");
  const std::vector<linalg::Bitmap> packed = PackColumns(ds.x0, offsets);
  const int64_t words = linalg::BitmapWords(ds.n());
  std::vector<double> bench_errors(static_cast<size_t>(words) * 64, 0.0);
  for (int64_t r = 0; r < ds.n(); ++r) bench_errors[r] = ds.errors[r];

  // The store's sum layout and error planes over the same rows (adult's
  // errors are 0/1): the candidate_eval rows run the blocked loop on the
  // exact masked kernel alone, the candidate_eval_planes rows with planes.
  const data::ColumnStore store(ds.x0, offsets, ds.errors);
  const linalg::ErrorPlanes* planes = store.error_planes();
  const linalg::SumLayout layout = store.error_source().layout;
  const linalg::ErrorSource masked{bench_errors.data(), layout, nullptr};
  const linalg::ErrorSource with_planes{bench_errors.data(), layout, planes};

  std::vector<std::pair<std::string, double>> speedups;
  for (const int level : {2, 4}) {
    const int64_t num_candidates = 512;
    const auto candidate_cols =
        DrawCandidates(packed, offsets, num_candidates, level, 17 + level);
    const auto sibling_cols =
        DrawSiblingRuns(packed, offsets, num_candidates, level, 29 + level);
    std::vector<linalg::CandidateColumns> candidates;
    for (const auto& cols : candidate_cols) {
      candidates.push_back({cols.data(), static_cast<int32_t>(cols.size())});
    }
    std::vector<linalg::CandidateColumns> siblings;
    for (const auto& cols : sibling_cols) {
      siblings.push_back({cols.data(), static_cast<int32_t>(cols.size())});
    }
    std::vector<int64_t> sizes(num_candidates);
    std::vector<uint64_t> lanes(num_candidates * layout.lanes),
        maxes(num_candidates);
    auto run = [&](const linalg::SimdKernels& kernels,
                   const linalg::ErrorSource& errors,
                   const std::vector<linalg::CandidateColumns>& candidates) {
      std::fill(sizes.begin(), sizes.end(), 0);
      std::fill(lanes.begin(), lanes.end(), 0);
      std::fill(maxes.begin(), maxes.end(), 0);
      linalg::EvaluateCandidatesBlocked(kernels, candidates.data(),
                                        num_candidates, words, errors,
                                        sizes.data(), lanes.data(),
                                        maxes.data());
      return static_cast<double>(sizes[0]) +
             linalg::RoundLanes(lanes.data(), layout);
    };
    double scalar_best = 0.0;
    for (linalg::SimdIsa isa : linalg::AvailableIsas()) {
      const linalg::SimdKernels& kernels = linalg::KernelsFor(isa);
      const std::string name = std::string("candidate_eval/L") +
                               std::to_string(level) + "/" +
                               linalg::IsaName(isa);
      const double best =
          RunCase(reporter, name, num_candidates * ds.n(),
                  [&] { return run(kernels, masked, candidates); });
      if (isa == linalg::SimdIsa::kScalar) {
        scalar_best = best;
      } else if (scalar_best > 0.0 && best > 0.0) {
        speedups.emplace_back("candidate_eval_L" + std::to_string(level) +
                                  "_" + linalg::IsaName(isa),
                              scalar_best / best);
      }
    }
    if (planes != nullptr) {
      for (linalg::SimdIsa isa : linalg::AvailableIsas()) {
        const linalg::SimdKernels& kernels = linalg::KernelsFor(isa);
        RunCase(reporter,
                std::string("candidate_eval_planes/L") +
                    std::to_string(level) + "/" + linalg::IsaName(isa),
                num_candidates * ds.n(),
                [&] { return run(kernels, with_planes, candidates); });
      }
    }
    // The sibling runs the evaluator actually sees, over the store's own
    // error source (planes when it keeps them).
    for (linalg::SimdIsa isa : linalg::AvailableIsas()) {
      const linalg::SimdKernels& kernels = linalg::KernelsFor(isa);
      RunCase(reporter,
              std::string("candidate_eval_siblings/L") +
                  std::to_string(level) + "/" + linalg::IsaName(isa),
              num_candidates * ds.n(),
              [&] { return run(kernels, with_planes, siblings); });
    }
  }
  // Micro rows: the raw AND+popcount membership count and the exact masked
  // error sum, isolated from the blocked loop. The and_popcount rows keep
  // their names and baselines and run fused_and_popcount with one mask,
  // whose Group<1> does the same AND and popcount per word.
  {
    const uint64_t* a = packed[0].data();
    const uint64_t* b = packed[packed.size() / 2].data();
    double scalar_and = 0.0;
    double scalar_masked = 0.0;
    for (linalg::SimdIsa isa : linalg::AvailableIsas()) {
      const linalg::SimdKernels& kernels = linalg::KernelsFor(isa);
      const char* isa_name = linalg::IsaName(isa);
      constexpr int kInner = 64;  // amortize timer granularity
      const double and_best = RunCase(
          reporter, std::string("and_popcount/") + isa_name,
          ds.n() * kInner, [&] {
            int64_t total = 0;
            for (int i = 0; i < kInner; ++i) {
              int64_t ones = 0;
              kernels.fused_and_popcount(a, &b, 1, words, &ones);
              total += ones;
            }
            return static_cast<double>(total);
          });
      const double masked_best = RunCase(
          reporter, std::string("masked_sum/") + isa_name,
          ds.n() * kInner, [&] {
            std::vector<uint64_t> acc(static_cast<size_t>(layout.lanes), 0);
            uint64_t max_bits = 0;
            for (int i = 0; i < kInner; ++i) {
              kernels.masked_sum(a, words, bench_errors.data(), layout,
                                 acc.data(), &max_bits);
            }
            return linalg::RoundLanes(acc.data(), layout);
          });
      if (isa == linalg::SimdIsa::kScalar) {
        scalar_and = and_best;
        scalar_masked = masked_best;
      } else {
        if (scalar_and > 0.0 && and_best > 0.0) {
          speedups.emplace_back(std::string("and_popcount_") + isa_name,
                                scalar_and / and_best);
        }
        if (scalar_masked > 0.0 && masked_best > 0.0) {
          speedups.emplace_back(std::string("masked_sum_") + isa_name,
                                scalar_masked / masked_best);
        }
      }
    }
  }
  // The bitmap fill of the columns level 2 reads (each level-1 slice of at
  // least sigma = max(32, n/100) rows and a non-zero error sum), one feature
  // at a time over blocks of rows as ColumnStore::Materialize runs it, on
  // one thread: the scalar scatter vs the vector levels' code compares.
  {
    const int64_t sigma = std::max<int64_t>(32, ds.n() / 100);
    std::vector<int32_t> slots(static_cast<size_t>(offsets.total));
    std::vector<int32_t> values;
    std::vector<std::vector<uint64_t>> bitmaps;
    std::vector<std::pair<int64_t, size_t>> features;  // feature, first entry
    for (int j = 0; j < offsets.num_features(); ++j) {
      const size_t first = values.size();
      for (int64_t c = offsets.fb[j]; c < offsets.fe[j]; ++c) {
        const size_t col = static_cast<size_t>(c);
        slots[col] = -1;
        if (store.basic_sizes()[col] < sigma ||
            store.basic_error_sums()[col] <= 0.0) {
          continue;
        }
        slots[col] = static_cast<int32_t>(values.size() - first);
        values.push_back(static_cast<int32_t>(c - offsets.fb[j] + 1));
        bitmaps.emplace_back(static_cast<size_t>(words));
      }
      const int32_t count = static_cast<int32_t>(values.size() - first);
      std::replace(slots.begin() + offsets.fb[j], slots.begin() + offsets.fe[j],
                   -1, count);
      if (count > 0) features.emplace_back(j, first);
    }
    std::vector<uint64_t*> dst;
    for (std::vector<uint64_t>& bitmap : bitmaps) dst.push_back(bitmap.data());
    const int64_t m = ds.x0.cols();
    const int64_t block = std::max<int64_t>(64, (int64_t{1} << 15) / m / 64 * 64);
    double scalar_fill = 0.0;
    for (linalg::SimdIsa isa : linalg::AvailableIsas()) {
      const linalg::SimdKernels& kernels = linalg::KernelsFor(isa);
      constexpr int kInner = 16;  // amortize timer granularity
      const double best = RunCase(
          reporter, std::string("column_fill/") + linalg::IsaName(isa),
          ds.n() * static_cast<int64_t>(features.size()) * kInner, [&] {
            for (int i = 0; i < kInner; ++i) {
              for (int64_t b = 0; b < ds.n(); b += block) {
                const int64_t rows = std::min(block, ds.n() - b);
                for (size_t f = 0; f < features.size(); ++f) {
                  const auto [j, first] = features[f];
                  const size_t end = f + 1 < features.size()
                                         ? features[f + 1].second
                                         : values.size();
                  kernels.fill_words(
                      ds.x0.row(b) + j, m, rows,
                      {values.data() + first, slots.data() + offsets.fb[j],
                       static_cast<int32_t>(end - first), dst.data() + first},
                      b >> 6);
                }
              }
            }
            return static_cast<double>(bitmaps[0][0] & 1);
          });
      if (isa == linalg::SimdIsa::kScalar) {
        scalar_fill = best;
      } else if (scalar_fill > 0.0 && best > 0.0) {
        speedups.emplace_back(std::string("column_fill_") +
                                  linalg::IsaName(isa),
                              scalar_fill / best);
      }
    }
    std::printf("  (%zu columns over %zu features, sigma=%lld)\n",
                bitmaps.size(), features.size(), static_cast<long long>(sigma));
  }
  if (!speedups.empty()) {
    std::printf("\nSIMD speedup over scalar (target >= 5x on "
                "candidate_eval):\n");
    for (const auto& [name, ratio] : speedups) {
      std::printf("  %-34s %8.2fx\n", name.c_str(), ratio);
    }
    reporter.AddRow("simd_speedup", std::move(speedups));
  }

  std::printf("\nchecksum: %s\n", FormatDouble(g_sink, 1).c_str());
  return reporter.Finish();
}
