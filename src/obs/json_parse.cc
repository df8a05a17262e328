#include "obs/json_parse.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace sliceline::obs {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::GetStringOr(const std::string& key,
                                   const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value() : fallback;
}

double JsonValue::GetNumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value() : fallback;
}

int64_t JsonValue::GetIntOr(const std::string& key, int64_t fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr ? v->int_value().value_or(fallback) : fallback;
}

std::optional<int64_t> JsonValue::int_value() const {
  // 2^63 is exact as a double; every double below it in magnitude that is
  // integral converts without overflow.
  constexpr double kLimit = 9223372036854775808.0;
  if (!is_number() || !(number_ >= -kLimit && number_ < kLimit) ||
      number_ != std::floor(number_)) {
    return std::nullopt;
  }
  return static_cast<int64_t>(number_);
}

bool JsonValue::GetBoolOr(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_value() : fallback;
}

StatusOr<std::string> JsonValue::RequireString(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_string()) {
    return Status::InvalidArgument("missing or non-string field '" + key +
                                   "'");
  }
  return v->string_value();
}

StatusOr<double> JsonValue::RequireNumber(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_number()) {
    return Status::InvalidArgument("missing or non-numeric field '" + key +
                                   "'");
  }
  return v->number_value();
}

StatusOr<int64_t> JsonValue::RequireInt(const std::string& key) const {
  SLICELINE_RETURN_NOT_OK(RequireNumber(key).status());
  const std::optional<int64_t> value = Find(key)->int_value();
  if (!value.has_value()) {
    return Status::InvalidArgument("field '" + key +
                                   "' must be an integer in the int64 range");
  }
  return *value;
}

JsonValue JsonValue::Null() { return JsonValue(); }

JsonValue JsonValue::Bool(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::Number(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::String(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue out;
  out.kind_ = Kind::kArray;
  out.array_ = std::move(items);
  return out;
}

JsonValue JsonValue::Object(
    std::vector<std::pair<std::string, JsonValue>> m) {
  JsonValue out;
  out.kind_ = Kind::kObject;
  out.object_ = std::move(m);
  return out;
}

namespace {

/// Recursive-descent parser over the same grammar as json_validate.cc, but
/// building the value tree. Kept separate from the validator so the
/// zero-allocation validation path stays cheap.
class TreeParser {
 public:
  explicit TreeParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    SkipWhitespace();
    SLICELINE_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " at byte " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  StatusOr<JsonValue> ParseValue() {
    if (++depth_ > kMaxDepth) return Error("nesting too deep");
    auto out = ParseValueInner();
    --depth_;
    return out;
  }

  StatusOr<JsonValue> ParseValueInner() {
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        SLICELINE_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::String(std::move(s));
      }
      case 't':
        SLICELINE_RETURN_NOT_OK(ParseLiteral("true"));
        return JsonValue::Bool(true);
      case 'f':
        SLICELINE_RETURN_NOT_OK(ParseLiteral("false"));
        return JsonValue::Bool(false);
      case 'n':
        SLICELINE_RETURN_NOT_OK(ParseLiteral("null"));
        return JsonValue::Null();
      default:
        return ParseNumber();
    }
  }

  Status ParseLiteral(const char* literal) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return Error(std::string("invalid literal, expected ") + literal);
      }
      ++pos_;
    }
    return Status::OK();
  }

  StatusOr<JsonValue> ParseObject() {
    ++pos_;  // consume '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return JsonValue::Object(std::move(members));
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      SLICELINE_ASSIGN_OR_RETURN(std::string key, ParseString());
      for (const auto& [k, v] : members) {
        if (k == key) return Error("duplicate object key '" + key + "'");
      }
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after object key");
      }
      ++pos_;
      SkipWhitespace();
      SLICELINE_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return JsonValue::Object(std::move(members));
      }
      return Error("expected ',' or '}' in object");
    }
  }

  StatusOr<JsonValue> ParseArray() {
    ++pos_;  // consume '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return JsonValue::Array(std::move(items));
    }
    while (true) {
      SkipWhitespace();
      SLICELINE_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      items.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return JsonValue::Array(std::move(items));
      }
      return Error("expected ',' or ']' in array");
    }
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  StatusOr<uint32_t> ParseHex4() {
    uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size() ||
          !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("invalid \\u escape");
      }
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<uint32_t>(c - '0');
      } else {
        cp |= static_cast<uint32_t>((c | 0x20) - 'a' + 10);
      }
    }
    return cp;
  }

  StatusOr<std::string> ParseString() {
    ++pos_;  // consume opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) return Error("raw control character in string");
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Error("unterminated escape");
        const char e = text_[pos_];
        switch (e) {
          case '"':
            out.push_back('"');
            ++pos_;
            break;
          case '\\':
            out.push_back('\\');
            ++pos_;
            break;
          case '/':
            out.push_back('/');
            ++pos_;
            break;
          case 'b':
            out.push_back('\b');
            ++pos_;
            break;
          case 'f':
            out.push_back('\f');
            ++pos_;
            break;
          case 'n':
            out.push_back('\n');
            ++pos_;
            break;
          case 'r':
            out.push_back('\r');
            ++pos_;
            break;
          case 't':
            out.push_back('\t');
            ++pos_;
            break;
          case 'u': {
            ++pos_;
            SLICELINE_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: must be followed by \uDC00-\uDFFF.
              if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return Error("unpaired surrogate in \\u escape");
              }
              pos_ += 2;
              SLICELINE_ASSIGN_OR_RETURN(uint32_t low, ParseHex4());
              if (low < 0xDC00 || low > 0xDFFF) {
                return Error("invalid low surrogate in \\u escape");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return Error("unpaired surrogate in \\u escape");
            }
            AppendUtf8(cp, &out);
            break;
          }
          default:
            return Error("invalid escape character");
        }
      } else {
        out.push_back(static_cast<char>(c));
        ++pos_;
      }
    }
    return Error("unterminated string");
  }

  StatusOr<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Error("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // leading zero must not be followed by digits
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("expected digits after decimal point");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("expected digits in exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    return JsonValue::Number(std::strtod(token.c_str(), nullptr));
  }

  static constexpr int kMaxDepth = 512;

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return TreeParser(text).Parse();
}

}  // namespace sliceline::obs
