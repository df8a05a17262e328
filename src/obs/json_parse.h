#ifndef SLICELINE_OBS_JSON_PARSE_H_
#define SLICELINE_OBS_JSON_PARSE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sliceline::obs {

/// Parsed strict-JSON document tree. The grammar is RFC 8259 (no trailing
/// commas, no NaN/Infinity, no comments) plus two rules every reader here
/// shares: a duplicate object key is an error, and a \u escape must not be
/// an unpaired surrogate. ParseJson and ValidateStrictJson
/// (obs/json_validate.h) run the same reader -- the validator only skips
/// building the tree -- so they give the same verdict and message on every
/// input. Objects preserve insertion order.
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

  // -- typed object-member decoding ----------------------------------------
  // One rule for every request field of both wire protocols: Optional
  // leaves *out (the field's default) when `key` is absent, Require makes
  // absence an error, and a member of the wrong type is an InvalidArgument
  // naming `key` either way. T is std::string, double, bool, int64_t or
  // int32_t (an integral number in range), or a std::vector of the
  // non-bool ones or of vectors of those, every item typed; json_parse.cc
  // instantiates the combinations in use. On error *out is unspecified.
  template <typename T>
  Status Optional(const std::string& key, T* out) const;
  template <typename T>
  Status Require(const std::string& key, T* out) const;

  /// Require of one scalar, the value returned (reply decoding).
  StatusOr<std::string> RequireString(const std::string& key) const;
  StatusOr<double> RequireNumber(const std::string& key) const;
  StatusOr<int64_t> RequireInt(const std::string& key) const;

  // Get*Or is the lenient read for replies: the fallback stands in for a
  // member that is absent or mistyped (an integer must be integral and in
  // the int64_t range: 1.5, 1e30 or 1e400 read as the fallback).
  std::string GetStringOr(const std::string& key,
                          const std::string& fallback) const;
  double GetNumberOr(const std::string& key, double fallback) const;
  int64_t GetIntOr(const std::string& key, int64_t fallback) const;
  bool GetBoolOr(const std::string& key, bool fallback) const;

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
/// anything else after it is an error). Errors are InvalidArgument with
/// the message "<what> at byte <offset>", the string ValidateStrictJson
/// returns for the same input.
StatusOr<JsonValue> ParseJson(const std::string& text);

}  // namespace sliceline::obs

#endif  // SLICELINE_OBS_JSON_PARSE_H_
