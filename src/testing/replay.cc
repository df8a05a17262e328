#include "testing/replay.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

namespace sliceline::testing {
namespace {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

// ---------------------------------------------------------------------------
// Parser: the minimal JSON subset the writer emits (one object, nested
// "config" object, flat number arrays, escaped strings, bools).
// ---------------------------------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Status Fail(const std::string& what) {
    std::ostringstream os;
    os << what << " at offset " << pos_;
    return Status::InvalidArgument(os.str());
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  Status ParseString(std::string* out) {
    SkipSpace();
    if (!Consume('"')) return Fail("expected string");
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("dangling escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          if (value > 0x7f) return Fail("non-ASCII \\u escape unsupported");
          out->push_back(static_cast<char>(value));
          break;
        }
        default: return Fail("unknown escape");
      }
    }
    if (!Consume('"')) return Fail("unterminated string");
    return Status::OK();
  }

  Status ParseDouble(double* out) {
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected number");
    // A separate null-terminated copy keeps strtod off the document tail.
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Fail("malformed number");
    return Status::OK();
  }

  Status ParseInt(int64_t* out) {
    double d = 0.0;
    auto status = ParseDouble(&d);
    if (!status.ok()) return status;
    *out = static_cast<int64_t>(d);
    if (static_cast<double>(*out) != d) return Fail("expected integer");
    return Status::OK();
  }

  Status ParseUint64(uint64_t* out) {
    // Seeds use the full 64-bit range, which a double cannot hold; they are
    // written as decimal strings.
    std::string s;
    auto status = ParseString(&s);
    if (!status.ok()) return status;
    if (s.empty()) return Fail("empty seed");
    uint64_t value = 0;
    for (char c : s) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        return Fail("non-decimal seed");
      }
      value = value * 10 + static_cast<uint64_t>(c - '0');
    }
    *out = value;
    return Status::OK();
  }

  Status ParseBool(bool* out) {
    SkipSpace();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      *out = true;
      return Status::OK();
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      *out = false;
      return Status::OK();
    }
    return Fail("expected bool");
  }

  Status ParseDoubleArray(std::vector<double>* out) {
    out->clear();
    if (!Consume('[')) return Fail("expected array");
    if (Consume(']')) return Status::OK();
    for (;;) {
      double v = 0.0;
      auto status = ParseDouble(&v);
      if (!status.ok()) return status;
      out->push_back(v);
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Fail("expected , or ] in array");
    }
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

Status ParseConfig(JsonParser* p, core::SliceLineConfig* config) {
  if (!p->Consume('{')) return p->Fail("expected config object");
  bool first = true;
  while (!p->Consume('}')) {
    if (!first && !p->Consume(',')) return p->Fail("expected , in config");
    first = false;
    std::string key;
    auto status = p->ParseString(&key);
    if (!status.ok()) return status;
    if (!p->Consume(':')) return p->Fail("expected : in config");
    if (key == "k") {
      int64_t v = 0;
      if (auto s = p->ParseInt(&v); !s.ok()) return s;
      config->k = static_cast<int>(v);
    } else if (key == "alpha") {
      if (auto s = p->ParseDouble(&config->alpha); !s.ok()) return s;
    } else if (key == "min_support") {
      if (auto s = p->ParseInt(&config->min_support); !s.ok()) return s;
    } else if (key == "max_level") {
      int64_t v = 0;
      if (auto s = p->ParseInt(&v); !s.ok()) return s;
      config->max_level = static_cast<int>(v);
    } else if (key == "prune_size") {
      if (auto s = p->ParseBool(&config->prune_size); !s.ok()) return s;
    } else if (key == "prune_score") {
      if (auto s = p->ParseBool(&config->prune_score); !s.ok()) return s;
    } else if (key == "prune_parents") {
      if (auto s = p->ParseBool(&config->prune_parents); !s.ok()) return s;
    } else if (key == "deduplicate") {
      if (auto s = p->ParseBool(&config->deduplicate); !s.ok()) return s;
    } else if (key == "eval_strategy") {
      std::string name;
      if (auto s = p->ParseString(&name); !s.ok()) return s;
      SLICELINE_ASSIGN_OR_RETURN(config->eval_strategy,
                                 core::ParseEvalStrategy(name));
    } else if (key == "eval_block_size") {
      int64_t v = 0;
      if (auto s = p->ParseInt(&v); !s.ok()) return s;
      config->eval_block_size = static_cast<int>(v);
    } else if (key == "parallel") {
      if (auto s = p->ParseBool(&config->parallel); !s.ok()) return s;
    } else {
      return Status::InvalidArgument("unknown config key: " + key);
    }
  }
  return Status::OK();
}

}  // namespace

std::string ReplayToJson(const ReplayRecord& record) {
  const core::SliceLineConfig& c = record.fuzz_case.config;
  std::string out = "{\n  \"check\": ";
  AppendEscaped(&out, record.check);
  out += ",\n  \"failure\": ";
  AppendEscaped(&out, record.failure);
  out += ",\n  \"case_index\": " + std::to_string(record.case_index);
  out += ",\n  \"kernel_rounds\": " + std::to_string(record.kernel_rounds);
  out += ",\n  \"seed\": \"" + std::to_string(record.fuzz_case.seed) + "\"";
  out += ",\n  \"profile\": ";
  AppendEscaped(&out, record.fuzz_case.profile);
  out += ",\n  \"rows\": " + std::to_string(record.fuzz_case.x0.rows());
  out += ",\n  \"cols\": " + std::to_string(record.fuzz_case.x0.cols());
  out += ",\n  \"x0\": [";
  const data::IntMatrix& x0 = record.fuzz_case.x0;
  for (int64_t i = 0; i < x0.rows() * x0.cols(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(x0.data()[i]);
  }
  out += "],\n  \"errors\": [";
  for (size_t i = 0; i < record.fuzz_case.errors.size(); ++i) {
    if (i > 0) out += ",";
    AppendDouble(&out, record.fuzz_case.errors[i]);
  }
  out += "],\n  \"config\": {\"k\": " + std::to_string(c.k);
  out += ", \"alpha\": ";
  AppendDouble(&out, c.alpha);
  out += ", \"min_support\": " + std::to_string(c.min_support);
  out += ", \"max_level\": " + std::to_string(c.max_level);
  out += std::string(", \"prune_size\": ") + (c.prune_size ? "true" : "false");
  out += std::string(", \"prune_score\": ") + (c.prune_score ? "true" : "false");
  out += std::string(", \"prune_parents\": ") +
         (c.prune_parents ? "true" : "false");
  out += std::string(", \"deduplicate\": ") + (c.deduplicate ? "true" : "false");
  out += std::string(", \"eval_strategy\": \"") + core::EvalStrategyName(c.eval_strategy) +
         "\"";
  out += ", \"eval_block_size\": " + std::to_string(c.eval_block_size);
  out += std::string(", \"parallel\": ") + (c.parallel ? "true" : "false");
  out += "}\n}\n";
  return out;
}

StatusOr<ReplayRecord> ReplayFromJson(const std::string& json) {
  JsonParser p(json);
  ReplayRecord record;
  int64_t rows = -1;
  int64_t cols = -1;
  std::vector<double> x0_flat;
  if (!p.Consume('{')) return p.Fail("expected top-level object");
  bool first = true;
  while (!p.Consume('}')) {
    if (!first && !p.Consume(',')) return p.Fail("expected , in object");
    first = false;
    std::string key;
    if (auto s = p.ParseString(&key); !s.ok()) return s;
    if (!p.Consume(':')) return p.Fail("expected :");
    if (key == "check") {
      if (auto s = p.ParseString(&record.check); !s.ok()) return s;
    } else if (key == "failure") {
      if (auto s = p.ParseString(&record.failure); !s.ok()) return s;
    } else if (key == "case_index") {
      int64_t v = 0;
      if (auto s = p.ParseInt(&v); !s.ok()) return s;
      record.case_index = static_cast<uint64_t>(v);
    } else if (key == "kernel_rounds") {
      int64_t v = 0;
      if (auto s = p.ParseInt(&v); !s.ok()) return s;
      record.kernel_rounds = static_cast<int>(v);
    } else if (key == "seed") {
      if (auto s = p.ParseUint64(&record.fuzz_case.seed); !s.ok()) return s;
    } else if (key == "profile") {
      if (auto s = p.ParseString(&record.fuzz_case.profile); !s.ok()) return s;
    } else if (key == "rows") {
      if (auto s = p.ParseInt(&rows); !s.ok()) return s;
    } else if (key == "cols") {
      if (auto s = p.ParseInt(&cols); !s.ok()) return s;
    } else if (key == "x0") {
      if (auto s = p.ParseDoubleArray(&x0_flat); !s.ok()) return s;
    } else if (key == "errors") {
      if (auto s = p.ParseDoubleArray(&record.fuzz_case.errors); !s.ok()) {
        return s;
      }
    } else if (key == "config") {
      if (auto s = ParseConfig(&p, &record.fuzz_case.config); !s.ok()) return s;
    } else {
      return Status::InvalidArgument("unknown replay key: " + key);
    }
  }
  if (!p.AtEnd()) return p.Fail("trailing garbage");
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("replay missing rows/cols");
  }
  if (static_cast<int64_t>(x0_flat.size()) != rows * cols) {
    return Status::InvalidArgument("x0 length != rows * cols");
  }
  if (record.check != "kernel" &&
      static_cast<int64_t>(record.fuzz_case.errors.size()) != rows) {
    return Status::InvalidArgument("errors length != rows");
  }
  data::IntMatrix x0(rows, cols);
  for (int64_t i = 0; i < rows * cols; ++i) {
    const auto code = static_cast<int32_t>(x0_flat[i]);
    if (static_cast<double>(code) != x0_flat[i]) {
      return Status::InvalidArgument("non-integer x0 entry");
    }
    x0.At(i / cols, i % cols) = code;
  }
  record.fuzz_case.x0 = std::move(x0);
  return record;
}

Status WriteReplayFile(const std::string& path, const ReplayRecord& record) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << ReplayToJson(record);
  out.flush();
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

StatusOr<ReplayRecord> ReadReplayFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReplayFromJson(buffer.str());
}

}  // namespace sliceline::testing
