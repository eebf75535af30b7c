// Minimal JSON value model + strict recursive-descent parser for the
// serve protocol (one request/response object per line).
//
// Scope is deliberately narrow — parse a complete document, expose typed
// accessors — because the hot path only ever reads a handful of scalar
// fields.  Strictness matters more than speed here: the parser rejects
// trailing garbage, unterminated strings, bare control characters and
// malformed escapes, so a request that round-trips through it is valid
// JSON by construction (this is also what the escaping regression tests
// use as their oracle).  Numbers are doubles; \uXXXX escapes decode to
// UTF-8 (surrogate pairs included).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lamps::net {

/// Immutable parsed JSON value.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Deepest array/object nesting parse() accepts.  Protocol documents
  /// nest at most 2 levels; the cap keeps the recursive descent (and the
  /// value's recursive destruction) off the end of the stack whatever a
  /// client sends.
  static constexpr std::size_t kMaxDepth = 64;

  /// Parses exactly one JSON document (leading/trailing whitespace
  /// allowed, anything else after it is an error).  Throws
  /// InputError(kJsonParse) with a byte offset in the context, also when
  /// arrays/objects nest deeper than kMaxDepth.
  [[nodiscard]] static JsonValue parse(std::string_view text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw InputError(kJsonParse) on a kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;

  /// Object field, nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* get(std::string_view key) const;

  /// Convenience over get(): returns the fallback when the key is absent;
  /// throws on a present-but-wrong-typed value so typos fail loudly.
  [[nodiscard]] double get_number(std::string_view key, double fallback) const;
  [[nodiscard]] std::string get_string(std::string_view key,
                                       const std::string& fallback) const;

 private:
  Kind kind_{Kind::kNull};
  bool bool_{false};
  double number_{0.0};
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;

  friend class JsonParser;
};

}  // namespace lamps::net
