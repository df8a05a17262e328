#ifndef SLICELINE_CORE_CHECKPOINT_H_
#define SLICELINE_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/hashing.h"
#include "common/status.h"
#include "core/evaluator.h"
#include "core/slice.h"
#include "linalg/csr_matrix.h"

namespace sliceline::core {

/// The checkpoint's config/data fingerprints and file checksum use the
/// shared FNV-1a hasher from common/hashing.h (also the serving layer's
/// registry and result-cache key hash, so fingerprints agree everywhere).
using ::sliceline::Fnv1a;

/// Everything the level-wise driver needs to continue a run from the end of
/// a completed level: the surviving frontier (slice matrix + aligned
/// ss/se/sm statistics), the top-K so far, per-level stats, and the
/// governance counters. The engine name and the two hashes bind a
/// checkpoint to one (engine, config, dataset) triple -- resume silently
/// falls back to a fresh run on any mismatch, so a stale file can slow a
/// run down but never corrupt it.
struct CheckpointState {
  static constexpr int kVersion = 2;

  std::string engine;        ///< "native" or "la"
  uint64_t config_hash = 0;  ///< HashConfigForCheckpoint of the run's config
  uint64_t data_hash = 0;    ///< fingerprint of the backend's level-1 view
  int level = 0;             ///< last fully completed level
  int64_t effective_sigma = 0;
  int degradation_steps = 0;
  int64_t candidates_capped = 0;
  int64_t total_evaluated = 0;
  std::vector<LevelStats> levels;
  std::vector<Slice> topk;  ///< descending score order
  std::vector<double> frontier_ss;
  std::vector<double> frontier_se;
  std::vector<double> frontier_sm;
  /// Surviving slice matrix: one row per frontier slice over the one-hot
  /// columns.
  linalg::CsrMatrix frontier;
};

/// Fingerprint of the problem parameters that must match for a resume to be
/// sound (k, alpha, sigma, level cap, pruning toggles, engine).
uint64_t HashConfigForCheckpoint(const SliceLineConfig& config, int64_t sigma,
                                 const std::string& engine);

/// The single rolling checkpoint file inside `dir`.
std::string CheckpointFilePath(const std::string& dir);

bool CheckpointFileExists(const std::string& dir);

/// Serializes `state` to CheckpointFilePath(dir): versioned text header,
/// %.17g doubles (exact round-trip), the frontier embedded as MatrixMarket
/// via matrix_io, and a trailing FNV-1a checksum over the payload. Written
/// to a temp file and renamed into place so a crash mid-save leaves the
/// previous checkpoint intact.
Status SaveCheckpoint(const std::string& dir, const CheckpointState& state);

/// Loads and validates (version, checksum, structural bounds) the
/// checkpoint in `dir`. No declared count is trusted further than the file
/// holds entries. Hash matching against the current run is the caller's
/// job, and so is CheckResumable.
StatusOr<CheckpointState> LoadCheckpoint(const std::string& dir);

/// OK when a loaded checkpoint fits a run over `offsets` with `rows` rows
/// and top-K size `k`: the level is in [1, features]; the frontier has
/// offsets.total columns, and each of its rows holds `level` strictly
/// ascending columns on distinct features; the statistics align with its
/// rows, and every size is an integer in [0, rows] and every error sum and
/// maximum finite and non-negative; the top-K holds at most `k` slices in
/// descending score order. InvalidArgument naming the first violation
/// otherwise: the file is unusable and the run starts fresh.
Status CheckResumable(const CheckpointState& state,
                      const data::FeatureOffsets& offsets, int64_t rows,
                      int k);

/// Conversions between the driver's SliceSet frontier and the CSR form the
/// checkpoint stores and the LA engine computes with (each slice row holds 1.0 at its one-hot
/// columns; CSR keeps row order and sorted columns, so the round-trip is
/// exact).
linalg::CsrMatrix SliceSetToCsr(const SliceSet& set, int64_t cols);
SliceSet CsrToSliceSet(const linalg::CsrMatrix& matrix);

}  // namespace sliceline::core

#endif  // SLICELINE_CORE_CHECKPOINT_H_
