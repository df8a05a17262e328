#include "core/slice.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/string_util.h"

namespace sliceline::core {

std::string Slice::ToString(
    const std::vector<std::string>& feature_names) const {
  std::ostringstream os;
  if (predicates.empty()) os << "<entire dataset>";
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i > 0) os << " & ";
    const auto& [feature, code] = predicates[i];
    if (feature >= 0 && feature < static_cast<int>(feature_names.size())) {
      os << feature_names[feature];
    } else {
      os << "F" << feature;
    }
    os << "=" << code;
  }
  os << " [score=" << FormatDouble(stats.score, 4)
     << " size=" << stats.size
     << " err=" << FormatDouble(stats.error_sum, 3)
     << " maxerr=" << FormatDouble(stats.max_error, 3) << "]";
  return os.str();
}

bool Slice::Matches(const data::IntMatrix& x0, int64_t row) const {
  for (const auto& [feature, code] : predicates) {
    if (x0.At(row, feature) != code) return false;
  }
  return true;
}

const char* EvalStrategyName(SliceLineConfig::EvalStrategy strategy) {
  switch (strategy) {
    case SliceLineConfig::EvalStrategy::kScanBlock:
      return "scan_block";
    case SliceLineConfig::EvalStrategy::kBitset:
      return "bitset";
  }
  return "unknown";
}

StatusOr<SliceLineConfig::EvalStrategy> ParseEvalStrategy(
    const std::string& name) {
  for (auto strategy : {SliceLineConfig::EvalStrategy::kScanBlock,
                        SliceLineConfig::EvalStrategy::kBitset}) {
    if (name == EvalStrategyName(strategy)) return strategy;
  }
  return Status::InvalidArgument("unknown eval strategy '" + name +
                                 "' (expected scan_block or bitset)");
}

Status CheckConfig(const SliceLineConfig& config) {
  if (!(config.alpha > 0.0 && config.alpha <= 1.0)) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (config.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (config.min_support < 0) {
    return Status::InvalidArgument("min_support must be >= 0");
  }
  return Status::OK();
}

Status CheckInputs(const data::IntMatrix& x0, const std::vector<double>& errors,
                   const SliceLineConfig& config) {
  if (x0.rows() == 0 || x0.cols() == 0) {
    return Status::InvalidArgument("empty feature matrix");
  }
  if (static_cast<int64_t>(errors.size()) != x0.rows()) {
    return Status::InvalidArgument(
        "error vector size " + std::to_string(errors.size()) +
        " does not match " + std::to_string(x0.rows()) + " rows");
  }
  return CheckConfig(config);
}

Status CheckErrors(const std::vector<double>& errors) {
  for (size_t i = 0; i < errors.size(); ++i) {
    if (!std::isfinite(errors[i]) || errors[i] < 0.0) {
      return Status::InvalidArgument(
          "errors must be non-negative and finite (row " + std::to_string(i) +
          ")");
    }
  }
  return Status::OK();
}

Status CheckHasErrors(const data::EncodedDataset& dataset) {
  if (dataset.errors.empty()) {
    return Status::InvalidArgument(
        "dataset has no materialized error vector; train a model via "
        "ml::TrainAndMaterializeErrors or use a generator");
  }
  return Status::OK();
}

std::vector<std::pair<int, int32_t>> DecodeColumns(
    const data::FeatureOffsets& offsets, const int64_t* cols, int64_t len) {
  std::vector<std::pair<int, int32_t>> preds;
  preds.reserve(static_cast<size_t>(len));
  for (int64_t k = 0; k < len; ++k) {
    preds.emplace_back(offsets.FeatureOfColumn(cols[k]),
                       offsets.CodeOfColumn(cols[k]));
  }
  return preds;
}

int64_t ResolveMinSupport(const SliceLineConfig& config, int64_t n) {
  if (config.min_support > 0) return config.min_support;
  const int64_t centile = (n + 99) / 100;  // ceil(n/100)
  return std::max<int64_t>(32, centile);
}

}  // namespace sliceline::core
