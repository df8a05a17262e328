#ifndef SLICELINE_SERVE_DATASET_REGISTRY_H_
#define SLICELINE_SERVE_DATASET_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/encoded_dataset.h"
#include "data/int_matrix.h"
#include "data/preprocess.h"
#include "serve/protocol.h"

namespace sliceline::serve {

/// One dataset loaded, preprocessed, and error-materialized exactly once,
/// then shared immutably across every request that names it. The data hash
/// fingerprints the encoded feature matrix plus the materialized error
/// vector (shared FNV-1a from common/hashing.h), and is one half of the
/// result-cache key.
struct RegisteredDataset {
  std::string name;
  std::string csv_path;
  data::EncodedDataset dataset;  ///< errors materialized; never mutated
  uint64_t data_hash = 0;
  double mean_error = 0.0;  ///< training-error mean from the ml pipeline
  double load_seconds = 0.0;
  /// Frozen per-feature encoders fitted at registration; appended rows are
  /// recoded against this dictionary (unseen categories are errors, never
  /// new codes). Shared across every snapshot of the dataset.
  std::shared_ptr<const data::DatasetEncoders> encoders;
  /// data_hash at registration: head of the append fingerprint chain.
  uint64_t base_hash = 0;
  /// Appends applied since registration (snapshots are immutable; each
  /// append publishes a new snapshot with version + 1).
  int64_t version = 0;
};

/// Fingerprint of an encoded dataset's slice-finding-relevant content:
/// dimensions, per-column domains, every feature code, and every
/// materialized error. Two registrations with equal hashes produce
/// identical find_slices results for any config.
uint64_t HashEncodedDataset(const data::EncodedDataset& dataset);

/// Chains a delta (codes + errors) onto a parent hash with the same FNV-1a
/// scheme, so any append sequence yields a hash chain:
/// h_k = Chain(h_{k-1}, delta_k). Two different append orders, or the same
/// rows split differently, yield different chains.
uint64_t ChainFingerprint(uint64_t parent, const data::IntMatrix& delta,
                          const std::vector<double>& errors);

/// Thread-safe name -> RegisteredDataset map. Loading happens outside the
/// registry lock (CSV parse + model training dominate); concurrent
/// registrations of the same name race benignly -- the first insert wins and
/// the loser is accepted iff its content hash matches (idempotent retry) and
/// rejected otherwise.
class DatasetRegistry {
 public:
  struct RegisterOutcome {
    std::shared_ptr<const RegisteredDataset> dataset;
    bool already_registered = false;  ///< idempotent re-registration
  };

  /// One applied append: the new immutable snapshot, the hash it replaced
  /// (cache-invalidation key), and the encoded delta so callers (the watch
  /// manager) can feed the same rows into incremental consumers.
  struct AppendOutcome {
    std::shared_ptr<const RegisteredDataset> dataset;
    uint64_t previous_hash = 0;
    data::IntMatrix delta_x0;
    std::vector<double> delta_errors;
  };

  /// Loads `request.csv_path`, preprocesses (recode/bin/drop), trains the
  /// task's model to materialize errors, and publishes the result.
  StatusOr<RegisterOutcome> Register(const RegisterDatasetRequest& request);

  /// Recodes `rows` (raw string cells, encoder order) against the frozen
  /// dictionary, appends them with their caller-provided model errors, and
  /// publishes a new snapshot whose data_hash is chained FNV-style onto the
  /// previous hash. Appends serialize on a dedicated mutex; readers keep
  /// whatever snapshot they already hold. Errors come from the caller
  /// because the server never retrains -- re-materializing errors here would
  /// rewrite history and break incremental re-evaluation.
  StatusOr<AppendOutcome> AppendRows(
      const std::string& name,
      const std::vector<std::vector<std::string>>& rows,
      const std::vector<double>& errors);

  /// Drops the dataset. Snapshots held by in-flight jobs stay alive until
  /// released; the caller (the server) refuses while jobs or watches
  /// reference the name. NotFound for unknown names.
  Status Unregister(const std::string& name);

  /// nullptr when unknown.
  std::shared_ptr<const RegisteredDataset> Find(const std::string& name) const;

  /// Registration-name-sorted snapshot.
  std::vector<std::shared_ptr<const RegisteredDataset>> List() const;

  int64_t size() const;

 private:
  mutable std::mutex mutex_;
  /// Serializes AppendRows end to end (encode + copy + publish) so two
  /// appends cannot both build on the same parent snapshot. Ordered before
  /// mutex_ -- AppendRows takes append_mutex_ first, then mutex_ briefly.
  std::mutex append_mutex_;
  std::map<std::string, std::shared_ptr<const RegisteredDataset>> datasets_;
};

}  // namespace sliceline::serve

#endif  // SLICELINE_SERVE_DATASET_REGISTRY_H_
