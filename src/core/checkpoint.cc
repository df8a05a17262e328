#include "core/checkpoint.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "linalg/matrix_io.h"

namespace sliceline::core {

namespace {

constexpr char kHeader[] = "sliceline-checkpoint v2";
constexpr char kFileName[] = "sliceline.ckpt";

/// %.17g: shortest text that round-trips an IEEE double exactly, which is
/// what makes a resumed run's top-K bit-identical to an uninterrupted one.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Reads one line and binds the remainder after `key ` to an istringstream.
Status ReadKeyLine(std::istringstream& in, const char* key,
                   std::istringstream* fields) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::IoError(std::string("checkpoint truncated before '") +
                           key + "'");
  }
  const std::string prefix = std::string(key) + " ";
  if (line.rfind(prefix, 0) != 0) {
    return Status::InvalidArgument(std::string("checkpoint expected '") +
                                   key + "', got '" + line + "'");
  }
  fields->clear();
  fields->str(line.substr(prefix.size()));
  return Status::OK();
}

template <typename T>
Status ReadScalar(std::istringstream& in, const char* key, T* out) {
  std::istringstream fields;
  SLICELINE_RETURN_NOT_OK(ReadKeyLine(in, key, &fields));
  if (!(fields >> *out)) {
    return Status::InvalidArgument(std::string("checkpoint bad value for '") +
                                   key + "'");
  }
  return Status::OK();
}

/// Reads the entry count under `key`. Every entry takes at least one line of
/// two bytes, so a count the rest of the payload cannot hold is rejected
/// before anything is sized by it.
Status ReadCount(std::istringstream& in, const char* key, size_t payload_size,
                 int64_t* count) {
  SLICELINE_RETURN_NOT_OK(ReadScalar(in, key, count));
  const std::streampos at = in.tellg();
  const int64_t left =
      at == std::streampos(-1)
          ? 0
          : static_cast<int64_t>(payload_size) - static_cast<int64_t>(at);
  if (*count < 0 || *count > left / 2) {
    return Status::OutOfRange(std::string("checkpoint '") + key +
                              "' count " + std::to_string(*count) +
                              " exceeds what the file holds");
  }
  return Status::OK();
}

}  // namespace

uint64_t HashConfigForCheckpoint(const SliceLineConfig& config, int64_t sigma,
                                 const std::string& engine) {
  Fnv1a h;
  h.AddString(engine);
  h.Add64(static_cast<uint64_t>(config.k));
  h.AddDouble(config.alpha);
  h.Add64(static_cast<uint64_t>(sigma));
  h.Add64(static_cast<uint64_t>(config.max_level));
  h.Add64((config.prune_size ? 1u : 0u) | (config.prune_score ? 2u : 0u) |
          (config.prune_parents ? 4u : 0u) | (config.deduplicate ? 8u : 0u));
  h.Add64(static_cast<uint64_t>(config.eval_strategy));
  return h.hash();
}

std::string CheckpointFilePath(const std::string& dir) {
  if (dir.empty()) return kFileName;
  return dir.back() == '/' ? dir + kFileName : dir + "/" + kFileName;
}

bool CheckpointFileExists(const std::string& dir) {
  std::ifstream in(CheckpointFilePath(dir));
  return in.good();
}

Status SaveCheckpoint(const std::string& dir, const CheckpointState& state) {
  if (static_cast<int64_t>(state.frontier_ss.size()) !=
          state.frontier.rows() ||
      state.frontier_se.size() != state.frontier_ss.size() ||
      state.frontier_sm.size() != state.frontier_ss.size()) {
    return Status::InvalidArgument(
        "checkpoint frontier stats not aligned with the frontier matrix");
  }
  std::ostringstream os;
  os << kHeader << "\n";
  os << "engine " << state.engine << "\n";
  os << "config_hash " << state.config_hash << "\n";
  os << "data_hash " << state.data_hash << "\n";
  os << "level " << state.level << "\n";
  os << "effective_sigma " << state.effective_sigma << "\n";
  os << "degradation_steps " << state.degradation_steps << "\n";
  os << "candidates_capped " << state.candidates_capped << "\n";
  os << "total_evaluated " << state.total_evaluated << "\n";
  os << "levels " << state.levels.size() << "\n";
  for (const LevelStats& s : state.levels) {
    os << s.level << " " << s.candidates << " " << s.valid << " " << s.pruned
       << " " << FormatDouble(s.seconds) << "\n";
  }
  os << "topk " << state.topk.size() << "\n";
  for (const Slice& slice : state.topk) {
    os << slice.predicates.size() << " " << FormatDouble(slice.stats.score)
       << " " << FormatDouble(slice.stats.error_sum) << " "
       << FormatDouble(slice.stats.max_error) << " " << slice.stats.size
       << "\n";
    for (size_t i = 0; i < slice.predicates.size(); ++i) {
      os << (i > 0 ? " " : "") << slice.predicates[i].first << " "
         << slice.predicates[i].second;
    }
    os << "\n";
  }
  os << "frontier_stats " << state.frontier_ss.size() << "\n";
  for (size_t i = 0; i < state.frontier_ss.size(); ++i) {
    os << FormatDouble(state.frontier_ss[i]) << " "
       << FormatDouble(state.frontier_se[i]) << " "
       << FormatDouble(state.frontier_sm[i]) << "\n";
  }
  const std::string mm = linalg::ToMatrixMarketString(state.frontier);
  os << "frontier " << mm.size() << "\n" << mm;

  const std::string payload = os.str();
  Fnv1a checksum;
  checksum.AddString(payload);

  const std::string path = CheckpointFilePath(dir);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot write '" + tmp + "'");
    out << payload << "checksum " << checksum.hash() << "\n";
    if (!out.flush()) {
      return Status::IoError("error while writing '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::OK();
}

StatusOr<CheckpointState> LoadCheckpoint(const std::string& dir) {
  const std::string path = CheckpointFilePath(dir);
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("no checkpoint at '" + path + "'");
  std::ostringstream buf;
  buf << file.rdbuf();
  const std::string content = buf.str();

  // Split off and verify the trailing checksum line.
  const size_t tail = content.rfind("\nchecksum ");
  if (tail == std::string::npos) {
    return Status::InvalidArgument("checkpoint missing checksum: '" + path +
                                   "'");
  }
  const std::string payload = content.substr(0, tail + 1);
  uint64_t stored = 0;
  if (std::sscanf(content.c_str() + tail + 1, "checksum %" SCNu64, &stored) !=
      1) {
    return Status::InvalidArgument("checkpoint malformed checksum line");
  }
  Fnv1a checksum;
  checksum.AddString(payload);
  if (checksum.hash() != stored) {
    return Status::InvalidArgument("checkpoint checksum mismatch in '" + path +
                                   "' (corrupt or partially written)");
  }

  std::istringstream in(payload);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return Status::InvalidArgument("unsupported checkpoint header: '" + line +
                                   "'");
  }

  CheckpointState state;
  std::istringstream fields;
  SLICELINE_RETURN_NOT_OK(ReadKeyLine(in, "engine", &fields));
  fields >> state.engine;
  SLICELINE_RETURN_NOT_OK(ReadScalar(in, "config_hash", &state.config_hash));
  SLICELINE_RETURN_NOT_OK(ReadScalar(in, "data_hash", &state.data_hash));
  SLICELINE_RETURN_NOT_OK(ReadScalar(in, "level", &state.level));
  SLICELINE_RETURN_NOT_OK(
      ReadScalar(in, "effective_sigma", &state.effective_sigma));
  SLICELINE_RETURN_NOT_OK(
      ReadScalar(in, "degradation_steps", &state.degradation_steps));
  SLICELINE_RETURN_NOT_OK(
      ReadScalar(in, "candidates_capped", &state.candidates_capped));
  SLICELINE_RETURN_NOT_OK(
      ReadScalar(in, "total_evaluated", &state.total_evaluated));

  int64_t num_levels = 0;
  SLICELINE_RETURN_NOT_OK(
      ReadCount(in, "levels", payload.size(), &num_levels));
  state.levels.reserve(static_cast<size_t>(num_levels));
  for (int64_t i = 0; i < num_levels; ++i) {
    LevelStats s;
    if (!std::getline(in, line)) {
      return Status::IoError("checkpoint truncated in levels");
    }
    std::istringstream row(line);
    if (!(row >> s.level >> s.candidates >> s.valid >> s.pruned >>
          s.seconds)) {
      return Status::InvalidArgument("checkpoint bad level line: '" + line +
                                     "'");
    }
    state.levels.push_back(s);
  }

  int64_t num_topk = 0;
  SLICELINE_RETURN_NOT_OK(ReadCount(in, "topk", payload.size(), &num_topk));
  state.topk.reserve(static_cast<size_t>(num_topk));
  for (int64_t i = 0; i < num_topk; ++i) {
    if (!std::getline(in, line)) {
      return Status::IoError("checkpoint truncated in top-K");
    }
    std::istringstream head(line);
    int64_t num_preds = 0;
    Slice slice;
    if (!(head >> num_preds >> slice.stats.score >> slice.stats.error_sum >>
          slice.stats.max_error >> slice.stats.size) ||
        num_preds < 0) {
      return Status::InvalidArgument("checkpoint bad top-K line: '" + line +
                                     "'");
    }
    if (!std::getline(in, line)) {
      return Status::IoError("checkpoint truncated in top-K predicates");
    }
    std::istringstream preds(line);
    for (int64_t p = 0; p < num_preds; ++p) {
      int feature = 0;
      int32_t code = 0;
      if (!(preds >> feature >> code)) {
        return Status::InvalidArgument("checkpoint bad predicate line: '" +
                                       line + "'");
      }
      slice.predicates.emplace_back(feature, code);
    }
    state.topk.push_back(std::move(slice));
  }

  int64_t num_stats = 0;
  SLICELINE_RETURN_NOT_OK(
      ReadCount(in, "frontier_stats", payload.size(), &num_stats));
  state.frontier_ss.reserve(static_cast<size_t>(num_stats));
  state.frontier_se.reserve(static_cast<size_t>(num_stats));
  state.frontier_sm.reserve(static_cast<size_t>(num_stats));
  for (int64_t i = 0; i < num_stats; ++i) {
    if (!std::getline(in, line)) {
      return Status::IoError("checkpoint truncated in frontier stats");
    }
    std::istringstream row(line);
    double ss = 0.0;
    double se = 0.0;
    double sm = 0.0;
    if (!(row >> ss >> se >> sm)) {
      return Status::InvalidArgument("checkpoint bad frontier stats: '" +
                                     line + "'");
    }
    state.frontier_ss.push_back(ss);
    state.frontier_se.push_back(se);
    state.frontier_sm.push_back(sm);
  }

  int64_t mm_bytes = 0;
  SLICELINE_RETURN_NOT_OK(ReadScalar(in, "frontier", &mm_bytes));
  const std::streampos at = in.tellg();
  if (mm_bytes < 0 || at == std::streampos(-1) ||
      static_cast<size_t>(at) + static_cast<size_t>(mm_bytes) >
          payload.size()) {
    return Status::InvalidArgument("checkpoint frontier size inconsistent");
  }
  SLICELINE_ASSIGN_OR_RETURN(
      state.frontier,
      linalg::ParseMatrixMarket(
          payload.substr(static_cast<size_t>(at),
                         static_cast<size_t>(mm_bytes)),
          /*max_rows=*/num_stats));
  if (state.frontier.rows() != num_stats) {
    return Status::InvalidArgument(
        "checkpoint frontier matrix row count does not match its stats");
  }
  return state;
}

Status CheckResumable(const CheckpointState& state,
                      const data::FeatureOffsets& offsets, int64_t rows,
                      int k) {
  const linalg::CsrMatrix& frontier = state.frontier;
  if (state.level < 1 || state.level > offsets.num_features()) {
    return Status::InvalidArgument(
        "checkpoint level " + std::to_string(state.level) + " outside [1, " +
        std::to_string(offsets.num_features()) + "]");
  }
  if (frontier.cols() != offsets.total) {
    return Status::InvalidArgument(
        "checkpoint frontier has " + std::to_string(frontier.cols()) +
        " columns, the run " + std::to_string(offsets.total));
  }
  const size_t count = static_cast<size_t>(frontier.rows());
  if (state.frontier_ss.size() != count || state.frontier_se.size() != count ||
      state.frontier_sm.size() != count) {
    return Status::InvalidArgument(
        "checkpoint frontier stats not aligned with the frontier matrix");
  }
  for (int64_t r = 0; r < frontier.rows(); ++r) {
    const std::string where = "checkpoint frontier row " + std::to_string(r);
    if (frontier.RowNnz(r) != state.level) {
      return Status::InvalidArgument(where + " does not hold " +
                                     std::to_string(state.level) +
                                     " columns");
    }
    const int64_t* cols = frontier.RowCols(r);
    for (int64_t i = 0; i < state.level; ++i) {
      if (cols[i] < 0 || cols[i] >= offsets.total ||
          (i > 0 && offsets.FeatureOfColumn(cols[i - 1]) >=
                        offsets.FeatureOfColumn(cols[i]))) {
        return Status::InvalidArgument(
            where + " is not ascending columns on distinct features");
      }
    }
    const double ss = state.frontier_ss[r];
    const double se = state.frontier_se[r];
    const double sm = state.frontier_sm[r];
    if (!(ss >= 0.0 && ss <= static_cast<double>(rows) &&
          ss == std::floor(ss)) ||
        !(se >= 0.0 && std::isfinite(se)) ||
        !(sm >= 0.0 && std::isfinite(sm))) {
      return Status::InvalidArgument(where + " has bad statistics");
    }
  }
  if (static_cast<int64_t>(state.topk.size()) > k) {
    return Status::InvalidArgument("checkpoint top-K holds more than k");
  }
  for (size_t i = 1; i < state.topk.size(); ++i) {
    if (!(state.topk[i - 1].stats.score >= state.topk[i].stats.score)) {
      return Status::InvalidArgument("checkpoint top-K is not sorted");
    }
  }
  return Status::OK();
}

linalg::CsrMatrix SliceSetToCsr(const SliceSet& set, int64_t cols) {
  std::vector<int64_t> row_ptr;
  std::vector<int64_t> col_idx;
  row_ptr.reserve(static_cast<size_t>(set.size()) + 1);
  row_ptr.push_back(0);
  for (int64_t i = 0; i < set.size(); ++i) {
    const int64_t* c = set.Columns(i);
    col_idx.insert(col_idx.end(), c, c + set.Length(i));
    row_ptr.push_back(static_cast<int64_t>(col_idx.size()));
  }
  std::vector<double> values(col_idx.size(), 1.0);
  return linalg::CsrMatrix(set.size(), cols, std::move(row_ptr),
                           std::move(col_idx), std::move(values));
}

SliceSet CsrToSliceSet(const linalg::CsrMatrix& matrix) {
  SliceSet set;
  set.Reserve(matrix.rows(), matrix.nnz());
  for (int64_t r = 0; r < matrix.rows(); ++r) {
    set.Add(matrix.RowCols(r), matrix.RowCols(r) + matrix.RowNnz(r));
  }
  return set;
}

}  // namespace sliceline::core
