// The one JSON reader: a minimal value model and a strict recursive-descent
// parser, beside the writer in util/json.hpp.  It reads the serve protocol
// (one request/response object per line), the experiment journal's records
// and the schedule JSON files.
//
// Scope is deliberately narrow — parse a complete document, expose typed
// accessors.  Strictness matters more than speed here: the parser rejects
// trailing garbage, unterminated strings, bare control characters and
// malformed escapes, so a document that round-trips through it is valid
// JSON by construction (this is also what the escaping regression tests
// use as their oracle).  Numbers are doubles, and an unsigned integer token
// also keeps its exact value for as_u64() (cycle counts and total work
// exceed the 2^53 a double holds exactly); \uXXXX escapes decode to UTF-8
// (surrogate pairs included).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lamps {

/// Immutable parsed JSON value.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

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
  /// The exact value of an integer token in [0, 2^64); throws on anything
  /// else ("-1", "1.0", "1e3", "18446744073709551616").
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  /// An object's members in document order.
  [[nodiscard]] const std::vector<Member>& members() const;

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
  bool is_u64_{false};  ///< number token is an integer in [0, 2^64)
  double number_{0.0};
  std::uint64_t u64_{0};
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> object_;

  friend class JsonParser;
};

}  // namespace lamps
