#ifndef SLICELINE_OBS_JSON_PARSE_H_
#define SLICELINE_OBS_JSON_PARSE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sliceline::obs {

/// Parsed strict-JSON document tree. The grammar accepted is exactly the
/// one ValidateStrictJson enforces (RFC 8259: no trailing commas, no
/// NaN/Infinity, no comments), so a document that validates also parses and
/// vice versa. Objects preserve insertion order; duplicate keys are a parse
/// error (the wire protocol treats them as malformed requests, and nothing
/// in this repo emits them).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object_items() const {
    return object_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  // -- typed object-member accessors for protocol decoding ------------------
  // Get*Or returns the default when the key is absent; Require* returns an
  // InvalidArgument Status naming the key when it is absent or mistyped
  // (the wire protocol's structured "invalid_argument" errors come from
  // these messages).
  std::string GetStringOr(const std::string& key,
                          const std::string& fallback) const;
  double GetNumberOr(const std::string& key, double fallback) const;
  int64_t GetIntOr(const std::string& key, int64_t fallback) const;
  bool GetBoolOr(const std::string& key, bool fallback) const;

  StatusOr<std::string> RequireString(const std::string& key) const;
  StatusOr<double> RequireNumber(const std::string& key) const;
  /// Integers must be integral and inside the int64_t range: a fraction,
  /// an overflow (1e30) or an infinity (1e400) is an InvalidArgument for
  /// RequireInt and the fallback for GetIntOr.
  StatusOr<int64_t> RequireInt(const std::string& key) const;

  /// The number as an int64_t, or nullopt when it is not a number, not
  /// integral, or outside the int64_t range.
  std::optional<int64_t> int_value() const;

  // -- construction (parser + tests) ----------------------------------------
  static JsonValue Null();
  static JsonValue Bool(bool v);
  static JsonValue Number(double v);
  static JsonValue String(std::string v);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::vector<std::pair<std::string, JsonValue>> m);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses exactly one strict-JSON document (trailing whitespace allowed,
/// anything else after it is an error). Errors carry "<message> at byte
/// <offset>" like ValidateStrictJson.
StatusOr<JsonValue> ParseJson(const std::string& text);

}  // namespace sliceline::obs

#endif  // SLICELINE_OBS_JSON_PARSE_H_
