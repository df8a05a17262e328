#include "serve/dataset_registry.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "common/hashing.h"
#include "data/csv.h"
#include "data/preprocess.h"
#include "ml/pipeline.h"
#include "obs/trace.h"

namespace sliceline::serve {

uint64_t HashEncodedDataset(const data::EncodedDataset& dataset) {
  Fnv1a hasher;
  hasher.Add64(static_cast<uint64_t>(dataset.n()));
  hasher.Add64(static_cast<uint64_t>(dataset.m()));
  hasher.AddString(dataset.task == data::Task::kRegression ? "reg" : "class");
  const std::vector<int32_t>& codes = dataset.x0.data();
  hasher.AddBytes(codes.data(), codes.size() * sizeof(int32_t));
  for (double error : dataset.errors) hasher.AddDouble(error);
  return hasher.hash();
}

uint64_t ChainFingerprint(uint64_t parent, const data::IntMatrix& delta,
                          const std::vector<double>& errors) {
  Fnv1a h;
  h.Add64(parent);
  h.Add64(static_cast<uint64_t>(delta.rows()));
  h.Add64(static_cast<uint64_t>(delta.cols()));
  if (!delta.data().empty()) {
    h.AddBytes(delta.data().data(),
               delta.data().size() * sizeof(delta.data()[0]));
  }
  for (double e : errors) h.AddDouble(e);
  return h.hash();
}

StatusOr<DatasetRegistry::RegisterOutcome> DatasetRegistry::Register(
    const RegisterDatasetRequest& request) {
  TRACE_SPAN("serve/register_dataset");
  if (request.name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  data::Task task;
  if (request.task == "reg") {
    task = data::Task::kRegression;
  } else if (request.task == "class") {
    task = data::Task::kClassification;
  } else {
    return Status::InvalidArgument("task must be 'reg' or 'class', got '" +
                                   request.task + "'");
  }
  if (request.bins < 2) {
    return Status::InvalidArgument("bins must be >= 2");
  }

  // Load/train outside the lock: this is the expensive part, and the map
  // only needs protecting around the final publish.
  const auto start = std::chrono::steady_clock::now();
  SLICELINE_ASSIGN_OR_RETURN(data::Frame frame,
                             data::ReadCsv(request.csv_path));
  data::PreprocessOptions options;
  options.label_column = request.label;
  options.task = task;
  options.num_bins = static_cast<int>(request.bins);
  options.drop_columns = request.drop;
  auto encoders = std::make_shared<data::DatasetEncoders>();
  SLICELINE_ASSIGN_OR_RETURN(
      data::EncodedDataset encoded,
      data::PreprocessWithEncoders(frame, options, encoders.get()));
  encoded.name = request.name;
  SLICELINE_ASSIGN_OR_RETURN(const double mean_error,
                             ml::TrainAndMaterializeErrors(&encoded));

  auto registered = std::make_shared<RegisteredDataset>();
  registered->name = request.name;
  registered->csv_path = request.csv_path;
  registered->dataset = std::move(encoded);
  registered->data_hash = HashEncodedDataset(registered->dataset);
  registered->encoders = std::move(encoders);
  registered->base_hash = registered->data_hash;
  registered->mean_error = mean_error;
  registered->load_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = datasets_.emplace(request.name, registered);
  if (inserted) return RegisterOutcome{std::move(registered), false};
  if (it->second->data_hash == registered->data_hash) {
    // Idempotent re-registration: same name, same content. Keep the
    // original so concurrent find_slices requests see one instance.
    return RegisterOutcome{it->second, true};
  }
  return Status::InvalidArgument(
      "dataset '" + request.name +
      "' is already registered with different content");
}

StatusOr<DatasetRegistry::AppendOutcome> DatasetRegistry::AppendRows(
    const std::string& name, const std::vector<std::vector<std::string>>& rows,
    const std::vector<double>& errors) {
  TRACE_SPAN("serve/append_rows");
  if (rows.empty()) {
    return Status::InvalidArgument("append carries no rows");
  }
  if (errors.size() != rows.size()) {
    return Status::InvalidArgument(
        "append needs one error per row (" + std::to_string(rows.size()) +
        " rows, " + std::to_string(errors.size()) + " errors)");
  }
  for (double error : errors) {
    if (!(error >= 0.0) || !std::isfinite(error)) {
      return Status::InvalidArgument("errors must be finite and >= 0");
    }
  }

  // Serialized end to end: two concurrent appends must chain, not race for
  // the same parent snapshot.
  std::lock_guard<std::mutex> append_lock(append_mutex_);
  std::shared_ptr<const RegisteredDataset> parent = Find(name);
  if (parent == nullptr) {
    return Status::NotFound("unknown dataset '" + name + "'");
  }
  if (parent->encoders == nullptr) {
    return Status::InvalidArgument(
        "dataset '" + name + "' was registered without frozen encoders");
  }
  SLICELINE_ASSIGN_OR_RETURN(data::IntMatrix delta,
                             data::EncodeRawRows(*parent->encoders, rows));

  // Copy-on-append: the parent snapshot stays immutable for the readers
  // holding it; the new snapshot extends codes/errors and chains the hash.
  auto next = std::make_shared<RegisteredDataset>(*parent);
  next->dataset.x0.AppendRows(delta);
  next->dataset.errors.insert(next->dataset.errors.end(), errors.begin(),
                              errors.end());
  // Labels are not carried on the append path (the caller's model already
  // scored the rows); pad y so row-aligned vectors stay row-aligned.
  next->dataset.y.resize(static_cast<size_t>(next->dataset.n()), 0.0);
  next->data_hash = ChainFingerprint(parent->data_hash, delta, errors);
  next->version = parent->version + 1;

  AppendOutcome outcome;
  outcome.previous_hash = parent->data_hash;
  outcome.delta_x0 = std::move(delta);
  outcome.delta_errors = errors;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    datasets_[name] = next;
  }
  outcome.dataset = std::move(next);
  return outcome;
}

Status DatasetRegistry::Unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (datasets_.erase(name) == 0) {
    return Status::NotFound("unknown dataset '" + name + "'");
  }
  return Status::OK();
}

std::shared_ptr<const RegisteredDataset> DatasetRegistry::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<const RegisteredDataset>> DatasetRegistry::List()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<const RegisteredDataset>> out;
  out.reserve(datasets_.size());
  for (const auto& [name, dataset] : datasets_) out.push_back(dataset);
  return out;
}

int64_t DatasetRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(datasets_.size());
}

}  // namespace sliceline::serve
