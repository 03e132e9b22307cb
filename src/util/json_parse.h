// Minimal recursive-descent JSON parser. Its one production caller parses
// the body of POST /recommend (serve/http.cc), bytes that arrive from the
// network, so every malformed input must end in a Status naming its byte
// offset (JsonParseFuzzTest). The producing side stays on
// obs/json_writer.h; this is the matching reader, kept deliberately small:
// strict RFC 8259 grammar, no comments, no trailing commas, numbers as
// double, \uXXXX escapes decoded to UTF-8, nesting depth capped at 64.

#ifndef SUPA_UTIL_JSON_PARSE_H_
#define SUPA_UTIL_JSON_PARSE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace supa {

/// One parsed JSON value. Objects preserve no insertion order (std::map,
/// so iteration is name-sorted — deterministic for table output).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::map<std::string, JsonValue>& object() const { return object_; }

  /// Object member by key, or nullptr when absent / not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Dotted-path lookup ("supa_inslearn.phases.train_s"), descending
  /// through nested objects. Returns nullptr when any hop is missing.
  const JsonValue* FindPath(std::string_view dotted_path) const;

  /// The member's number when present and numeric, else `fallback`.
  double NumberOr(std::string_view key, double fallback) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses exactly one JSON document (trailing whitespace allowed, trailing
/// content is an error). Errors carry a byte offset.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace supa

#endif  // SUPA_UTIL_JSON_PARSE_H_
