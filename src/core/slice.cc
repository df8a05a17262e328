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

Status CheckErrors(const std::vector<double>& errors) {
  for (double e : errors) {
    if (!std::isfinite(e) || e < 0.0) {
      return Status::InvalidArgument("errors must be non-negative and finite");
    }
  }
  return Status::OK();
}

int64_t ResolveMinSupport(const SliceLineConfig& config, int64_t n) {
  if (config.min_support > 0) return config.min_support;
  const int64_t centile = (n + 99) / 100;  // ceil(n/100)
  return std::max<int64_t>(32, centile);
}

}  // namespace sliceline::core
