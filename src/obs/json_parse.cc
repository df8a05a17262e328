#include "obs/json_parse.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "obs/json_validate.h"

namespace sliceline::obs {

namespace {

// One Decode overload per type a member can be read as: false when `value`
// holds another type.
bool Decode(const JsonValue& value, std::string* out) {
  if (!value.is_string()) return false;
  *out = value.string_value();
  return true;
}

bool Decode(const JsonValue& value, double* out) {
  if (!value.is_number()) return false;
  *out = value.number_value();
  return true;
}

bool Decode(const JsonValue& value, bool* out) {
  if (!value.is_bool()) return false;
  *out = value.bool_value();
  return true;
}

bool Decode(const JsonValue& value, int64_t* out) {
  const std::optional<int64_t> v = value.int_value();
  if (!v.has_value()) return false;
  *out = *v;
  return true;
}

bool Decode(const JsonValue& value, int32_t* out) {
  const std::optional<int64_t> v = value.int_value();
  if (!v.has_value() || *v < std::numeric_limits<int32_t>::min() ||
      *v > std::numeric_limits<int32_t>::max()) {
    return false;
  }
  *out = static_cast<int32_t>(*v);
  return true;
}

template <typename T>
bool Decode(const JsonValue& value, std::vector<T>* out) {
  if (!value.is_array()) return false;
  out->clear();
  out->reserve(value.array_items().size());
  for (const JsonValue& item : value.array_items()) {
    T decoded{};
    if (!Decode(item, &decoded)) return false;
    out->push_back(std::move(decoded));
  }
  return true;
}

// What a member of each type must be, for the error message; Items names
// the type in the plural, for the arrays that hold it.
std::string Items(const std::string*) { return "strings"; }
std::string Items(const double*) { return "numbers"; }
std::string Items(const int64_t*) { return "integers in the int64 range"; }
std::string Items(const int32_t*) { return "integers in the int32 range"; }
template <typename T>
std::string Items(const std::vector<T>*) {
  return "arrays of " + Items(static_cast<const T*>(nullptr));
}

std::string Expected(const std::string*) { return "a string"; }
std::string Expected(const double*) { return "a number"; }
std::string Expected(const bool*) { return "a boolean"; }
std::string Expected(const int64_t*) { return "an integer in the int64 range"; }
std::string Expected(const int32_t*) { return "an integer in the int32 range"; }
template <typename T>
std::string Expected(const std::vector<T>*) {
  return "an array of " + Items(static_cast<const T*>(nullptr));
}

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

template <typename T>
Status JsonValue::Optional(const std::string& key, T* out) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || Decode(*member, out)) return Status::OK();
  return Status::InvalidArgument("field '" + key + "' must be " +
                                 Expected(out));
}

template <typename T>
Status JsonValue::Require(const std::string& key, T* out) const {
  if (Find(key) == nullptr) {
    return Status::InvalidArgument("missing field '" + key + "'");
  }
  return Optional(key, out);
}

#define SLICELINE_JSON_MEMBER_TYPE(T)                                    \
  template Status JsonValue::Optional<T>(const std::string&, T*) const; \
  template Status JsonValue::Require<T>(const std::string&, T*) const;
SLICELINE_JSON_MEMBER_TYPE(std::string)
SLICELINE_JSON_MEMBER_TYPE(double)
SLICELINE_JSON_MEMBER_TYPE(bool)
SLICELINE_JSON_MEMBER_TYPE(int64_t)
SLICELINE_JSON_MEMBER_TYPE(int32_t)
SLICELINE_JSON_MEMBER_TYPE(std::vector<std::string>)
SLICELINE_JSON_MEMBER_TYPE(std::vector<double>)
SLICELINE_JSON_MEMBER_TYPE(std::vector<int64_t>)
SLICELINE_JSON_MEMBER_TYPE(std::vector<int32_t>)
SLICELINE_JSON_MEMBER_TYPE(std::vector<std::vector<std::string>>)
SLICELINE_JSON_MEMBER_TYPE(std::vector<std::vector<int64_t>>)
#undef SLICELINE_JSON_MEMBER_TYPE

StatusOr<std::string> JsonValue::RequireString(const std::string& key) const {
  std::string value;
  SLICELINE_RETURN_NOT_OK(Require(key, &value));
  return value;
}

StatusOr<double> JsonValue::RequireNumber(const std::string& key) const {
  double value = 0.0;
  SLICELINE_RETURN_NOT_OK(Require(key, &value));
  return value;
}

StatusOr<int64_t> JsonValue::RequireInt(const std::string& key) const {
  int64_t value = 0;
  SLICELINE_RETURN_NOT_OK(Require(key, &value));
  return value;
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

bool JsonValue::GetBoolOr(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_value() : fallback;
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

/// Recursive-descent reader of the grammar above. Each Read* stores what it
/// reads in `out`, or with `out` null only checks: no tree is built and no
/// string decoded except object keys (the duplicate test needs them), so
/// checking a large document such as a Chrome trace allocates only for the
/// objects open at one time.
class Reader {
 public:
  explicit Reader(const std::string& text) : text_(text) {}

  Status ReadDocument(JsonValue* out) {
    SkipWhitespace();
    SLICELINE_RETURN_NOT_OK(ReadValue(out));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON document");
    }
    return Status::OK();
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

  Status ReadValue(JsonValue* out) {
    if (++depth_ > kMaxDepth) return Error("nesting too deep");
    Status status = ReadValueInner(out);
    --depth_;
    return status;
  }

  Status ReadValueInner(JsonValue* out) {
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ReadObject(out);
      case '[':
        return ReadArray(out);
      case '"': {
        std::string s;
        SLICELINE_RETURN_NOT_OK(ReadString(out != nullptr ? &s : nullptr));
        if (out != nullptr) *out = JsonValue::String(std::move(s));
        return Status::OK();
      }
      case 't':
        return ReadLiteral("true", JsonValue::Bool(true), out);
      case 'f':
        return ReadLiteral("false", JsonValue::Bool(false), out);
      case 'n':
        return ReadLiteral("null", JsonValue::Null(), out);
      default:
        return ReadNumber(out);
    }
  }

  Status ReadLiteral(const char* literal, JsonValue value, JsonValue* out) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return Error(std::string("invalid literal, expected ") + literal);
      }
      ++pos_;
    }
    if (out != nullptr) *out = std::move(value);
    return Status::OK();
  }

  Status ReadObject(JsonValue* out) {
    ++pos_;  // consume '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      if (out != nullptr) *out = JsonValue::Object(std::move(members));
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      std::string key;
      SLICELINE_RETURN_NOT_OK(ReadString(&key));
      for (const auto& [k, v] : members) {
        if (k == key) return Error("duplicate object key '" + key + "'");
      }
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after object key");
      }
      ++pos_;
      SkipWhitespace();
      members.emplace_back(std::move(key), JsonValue());
      SLICELINE_RETURN_NOT_OK(
          ReadValue(out != nullptr ? &members.back().second : nullptr));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        if (out != nullptr) *out = JsonValue::Object(std::move(members));
        return Status::OK();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Status ReadArray(JsonValue* out) {
    ++pos_;  // consume '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      if (out != nullptr) *out = JsonValue::Array(std::move(items));
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      SLICELINE_RETURN_NOT_OK(
          ReadValue(out != nullptr ? &items.emplace_back() : nullptr));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        if (out != nullptr) *out = JsonValue::Array(std::move(items));
        return Status::OK();
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

  StatusOr<uint32_t> ReadHex4() {
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

  /// The code point of the \u escape at pos_ (just past the 'u'), joining
  /// a surrogate pair into one.
  StatusOr<uint32_t> ReadUnicodeEscape() {
    SLICELINE_ASSIGN_OR_RETURN(uint32_t cp, ReadHex4());
    if (cp >= 0xDC00 && cp <= 0xDFFF) {
      return Error("unpaired surrogate in \\u escape");
    }
    if (cp < 0xD800 || cp > 0xDBFF) return cp;
    // High surrogate: must be followed by \uDC00-\uDFFF.
    if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
        text_[pos_ + 1] != 'u') {
      return Error("unpaired surrogate in \\u escape");
    }
    pos_ += 2;
    SLICELINE_ASSIGN_OR_RETURN(uint32_t low, ReadHex4());
    if (low < 0xDC00 || low > 0xDFFF) {
      return Error("invalid low surrogate in \\u escape");
    }
    return 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
  }

  Status ReadString(std::string* out) {
    ++pos_;  // consume opening quote
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return Status::OK();
      if (c < 0x20) {
        --pos_;
        return Error("raw control character in string");
      }
      if (c != '\\') {
        if (out != nullptr) out->push_back(static_cast<char>(c));
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      char decoded = 0;
      switch (text_[pos_++]) {
        case '"': decoded = '"'; break;
        case '\\': decoded = '\\'; break;
        case '/': decoded = '/'; break;
        case 'b': decoded = '\b'; break;
        case 'f': decoded = '\f'; break;
        case 'n': decoded = '\n'; break;
        case 'r': decoded = '\r'; break;
        case 't': decoded = '\t'; break;
        case 'u': {
          SLICELINE_ASSIGN_OR_RETURN(const uint32_t cp, ReadUnicodeEscape());
          if (out != nullptr) AppendUtf8(cp, out);
          continue;
        }
        default:
          --pos_;
          return Error("invalid escape character");
      }
      if (out != nullptr) out->push_back(decoded);
    }
    return Error("unterminated string");
  }

  Status ReadNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!AtDigit()) return Error("invalid number");
    if (text_[pos_] == '0') {
      ++pos_;  // leading zero must not be followed by digits
    } else {
      SkipDigits();
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!AtDigit()) return Error("expected digits after decimal point");
      SkipDigits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!AtDigit()) return Error("expected digits in exponent");
      SkipDigits();
    }
    if (out != nullptr) {
      const std::string token = text_.substr(start, pos_ - start);
      *out = JsonValue::Number(std::strtod(token.c_str(), nullptr));
    }
    return Status::OK();
  }

  bool AtDigit() const {
    return pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]));
  }

  void SkipDigits() {
    while (AtDigit()) ++pos_;
  }

  static constexpr int kMaxDepth = 512;

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(const std::string& text) {
  JsonValue root;
  SLICELINE_RETURN_NOT_OK(Reader(text).ReadDocument(&root));
  return root;
}

std::string ValidateStrictJson(const std::string& text) {
  return Reader(text).ReadDocument(nullptr).message();
}

}  // namespace sliceline::obs
